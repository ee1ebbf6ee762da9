"""Fixed limits stay module constants, not per-call options.

The sweep, fiber and enumeration limits each have one value that every
caller uses, so none of them is a parameter: fibers take no `limit`, and
`find_section` slices each fiber at its cap itself. Window groups carry
no adjacency law: the window's own adjacency judges every value. Nothing
aims a nullhomotopy at chosen targets or slides over a chosen pool. No
function takes a search budget: every search draws on the ledger of the
enclosing `homotopy.budget` block, which the CLI opens once per command
from `--budget`, whose default is `homotopy.NODE_BUDGET`.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil

import ditop
from ditop.cli import build_parser
from ditop.groups import WindowGroup
from ditop.homotopy import NODE_BUDGET
from helpers import field_names

RETIRED = {"guard", "genus_guard", "cat_guard", "contractibility_guard",
           "fiber_cap", "limit", "skip_axioms", "seeds", "targets", "pool",
           "node_budget"}


def _signatures():
    """(qualified name, signature) of every function and method defined
    in a ditop module."""
    for info in pkgutil.iter_modules(ditop.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ditop.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield where, inspect.signature(obj)
            elif inspect.isclass(obj):
                # a record's constructor is its `__init__`, which lists
                # its fields as parameters
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{where}.{attr}", inspect.signature(member)


def test_no_function_takes_a_retired_limit_or_switch():
    seen = 0
    found = []
    for where, sig in _signatures():
        seen += 1
        for param in sig.parameters.values():
            # a group table's identity element is data and stays required;
            # an optional `identity` would be the retired enumeration filter
            optional_identity = (param.name == "identity"
                                 and param.default is not param.empty)
            if param.name in RETIRED or optional_identity:
                found.append(f"{where}({param.name})")
    assert seen > 100
    assert found == []


def test_a_window_group_carries_no_adjacency_law():
    assert "law" not in field_names(WindowGroup)


def test_only_the_search_and_the_cli_read_the_default_budget():
    source = pathlib.Path(ditop.__file__).parent
    assert {path.stem for path in source.glob("*.py")
            if "NODE_BUDGET" in path.read_text(encoding="utf-8")} \
        == {"homotopy", "cli"}


def test_the_cli_budget_defaults_to_the_library_budget():
    for command in ("homotopic corpus:a corpus:b", "contractible corpus:H",
                    "cat corpus:H", "tc corpus:H", "verify-paper"):
        args = build_parser().parse_args(command.split())
        assert args.budget == NODE_BUDGET, command
