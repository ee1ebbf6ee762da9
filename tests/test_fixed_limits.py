"""Fixed limits stay module constants, not per-call options.

The sweep, fiber and enumeration limits each have one value that every
caller uses, so none of them is a parameter: fibers take no `limit`, and
`find_section` slices each fiber at its cap itself. Window groups carry
no adjacency law: the window's own adjacency judges every value. Nothing
aims a nullhomotopy at chosen targets or slides over a chosen pool, and
every search budget defaults to the one value `--budget` does.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import ditop
from ditop.cli import build_parser
from ditop.groups import WindowGroup

RETIRED = {"guard", "genus_guard", "cat_guard", "contractibility_guard",
           "fiber_cap", "limit", "skip_axioms", "seeds", "targets", "pool"}


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
                # dataclass constructors are generated `__init__` methods
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
    assert "law" not in {f.name for f in dataclasses.fields(WindowGroup)}


def test_every_node_budget_defaults_to_the_cli_budget():
    cli_default = build_parser().parse_args(["cat", "corpus:H"]).budget
    defaults = {where: sig.parameters["node_budget"].default
                for where, sig in _signatures()
                if "node_budget" in sig.parameters}
    assert len(defaults) > 15
    assert {where: d for where, d in defaults.items()
            if d != cli_default} == {}
