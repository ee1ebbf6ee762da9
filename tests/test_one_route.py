"""One slide-then-search route: `homotopy.nullhomotopy`; one certifier
for proved sections: `complexity._certify`.

Slides come from one generator, `homotopy.slides`, and folding a domain
and lifting a core witness happen in `homotopy` alone, so no module grows
a second order of slides, folds and lifts of its own. Every section a
proof backs is checked by `complexity._certify`, the one place that
raises `TheoremViolation`, and the contractible-base route lives in
`tc_n`, not in a function of its own. The checks read the package's
source, so they see calls on every path, run or not.
"""

from __future__ import annotations

import ast
import pathlib

import ditop

SOURCE = pathlib.Path(ditop.__file__).parent


def _name(func: ast.expr) -> str | None:
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _calls(names: set[str], raised: bool = False,
           ) -> list[tuple[str, str, str]]:
    """(module, enclosing function, callee) for each call by name or
    attribute to one of `names` in a ditop module; with `raised`, only
    the calls a `raise` statement raises."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module: str):
            self.module = module
            self.stack: list[str] = []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Raise(self, node):
            if raised and isinstance(node.exc, ast.Call):
                self.record(node.exc)
            self.generic_visit(node)

        def visit_Call(self, node):
            if not raised:
                self.record(node)
            self.generic_visit(node)

        def record(self, call: ast.Call):
            name = _name(call.func)
            if name in names:
                found.append((self.module, ".".join(self.stack), name))

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


def test_theorem_violations_come_from_the_one_certifier():
    raises = _calls({"TheoremViolation"}, raised=True)
    assert {(m, f) for m, f, _ in raises} == {("complexity", "_certify")}
    assert {(m, f) for m, f, _ in _calls({"_certify"})} == {
        ("complexity", "tc_n"), ("complexity", "tc_upper_via_group"),
        ("complexity", "product_of_sections")}


def test_the_contractible_base_route_has_no_function_of_its_own():
    tree = ast.parse((SOURCE / "complexity.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "contraction_section" not in defined
    assert not _calls({"contraction_section"})
