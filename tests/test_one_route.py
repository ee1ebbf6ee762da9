"""One slide-then-search route: `homotopy.nullhomotopy`.

Slides come from one generator, `homotopy.slides`, and folding a domain
and lifting a core witness happen in `homotopy` alone, so no module grows
a second order of slides, folds and lifts of its own. The check reads
the package's source, so it sees calls on every path, run or not.
"""

from __future__ import annotations

import ast
import pathlib

import ditop

SOURCE = pathlib.Path(ditop.__file__).parent


def _calls(names: set[str]) -> list[tuple[str, str, str]]:
    """(module, enclosing function, callee) for each call by name or
    attribute to one of `names` in a ditop module."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module: str):
            self.module = module
            self.stack: list[str] = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name in names:
                found.append((self.module, ".".join(self.stack), name))
            self.generic_visit(node)

    for path in sorted(SOURCE.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_slides_come_from_one_generator():
    calls = _calls({"slide_nullhomotopy"})
    assert calls == [("homotopy", "slides", "slide_nullhomotopy")]


def test_only_homotopy_folds_and_lifts():
    calls = _calls({"fold", "pull_back"})
    assert {callee for _, _, callee in calls} == {"fold", "pull_back"}
    assert [c for c in calls if c[0] != "homotopy"] == []
