"""One slide-then-search route: `homotopy.nullhomotopy`; one certifier
for proved sections: `complexity._certify`; one product flag: `strong`;
one constructor that turns points into a map: `DigitalMap.from_points`,
and one that turns them into a table: `CayleyTable.from_points`.

Slides come from one generator, `homotopy.slides`, and folding a domain
and lifting a core witness happen in `homotopy` alone, so no module grows
a second order of slides, folds and lifts of its own. Every section a
proof backs or the exact genus search finds is checked by
`complexity._certify`, the one place that raises `TheoremViolation`, and the contractible-base route lives in
`tc_n`, not in a function of its own. The choice between the min and
the strong product (and the pointwise and strong wedge steps built on
them) is one keyword-only `strong` flag, with no string vocabulary
beside it, and images, maps and tables carry no label that nothing
reads. Maps made inside the package pass codomain indices straight in,
tables their grids of carrier indices, sections their product and arm
indices, so the section checker, the certifier and the section search's
occupancy tables look no point up. Subsets are bitmasks of point
indices from the cover sweep through the admissibility oracle to the
piece searches (`category.piece_contraction`, `complexity.find_section`),
which neither look a point up nor restrict an image by points; and code
that only tests call lives in `tests/helpers.py`. An endpoint fibration is its own wedge
space, with no wrapper to reach through. Only the category oracle, whose
search is complete, answers whole orbits of the image's automorphism
group. The checks read the package's source, so they see calls on every
path, run or not.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Callable

import ditop
from ditop import corpus
from ditop.groups import (CayleyTable, WindowGroup, WindowHomReport,
                          WindowReport)
from ditop.homotopy import HomotopyWitness
from ditop.images import DigitalImage, ProductAdjacency
from ditop.maps import DigitalMap

SOURCE = pathlib.Path(ditop.__file__).parent


def _name(func: ast.expr) -> str | None:
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _calls(names: set[str], raised: bool = False,
           where: Callable[[ast.Call], bool] = lambda call: True,
           ) -> list[tuple[str, str, str]]:
    """(module, enclosing function, callee) for each call by name or
    attribute to one of `names` in a ditop module that `where` accepts;
    with `raised`, only the calls a `raise` statement raises."""
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
            if name in names and where(call):
                found.append((self.module, ".".join(self.stack), name))

    for path in sorted(SOURCE.glob("*.py")):
        Visitor(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_slides_come_from_one_generator():
    calls = _calls({"slide_nullhomotopy"})
    assert calls == [("homotopy", "slides", "slide_nullhomotopy")]


def test_the_group_route_tracks_a_piece_without_deciding_it_again():
    # a piece without a slide runs one shortest search to the end point;
    # `nullhomotopy` would slide again and decide what the search decides
    assert [c for c in _calls({"nullhomotopy", "shortest_nullhomotopy"})
            if c[1].split(".")[0] == "_piece_track"] == [
        ("complexity", "_piece_track", "shortest_nullhomotopy")]


def test_only_the_category_oracle_answers_whole_orbits():
    # slides break ties lexicographically, so slide-only verdicts are not
    # the same on an orbit; only the complete category search passes the
    # automorphism group's generators to its oracle
    def passes_generators(call: ast.Call) -> bool:
        return len(call.args) > 2 or any(
            k.arg in ("generators", None) for k in call.keywords)

    assert _calls({"AdmissibilityOracle"}, where=passes_generators) == [
        ("category", "cat_oracle", "AdmissibilityOracle")]
    assert ("category", "cat_bounds", "AdmissibilityOracle") \
        in _calls({"AdmissibilityOracle"})


def test_only_homotopy_folds_and_lifts():
    calls = _calls({"fold", "pull_back"})
    assert {callee for _, _, callee in calls} == {"fold", "pull_back"}
    assert [c for c in calls if c[0] != "homotopy"] == []


def test_theorem_violations_come_from_the_one_certifier():
    raises = _calls({"TheoremViolation"}, raised=True)
    assert {(m, f) for m, f, _ in raises} == {("complexity", "_certify")}
    assert {(m, f) for m, f, _ in _calls({"_certify"})} == {
        ("complexity", "tc_n"), ("complexity", "tc_upper_via_group"),
        ("complexity", "product_of_sections"), ("complexity", "schwarz_genus")}


def test_the_contractible_base_route_has_no_function_of_its_own():
    tree = ast.parse((SOURCE / "complexity.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "contraction_section" not in defined
    assert not _calls({"contraction_section"})


def _functions() -> list[tuple[str, str, ast.arguments]]:
    """(module, qualified name, arguments) of every function and method
    defined in a ditop module."""
    found = []

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((module, prefix + child.name, child.args))
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_no_function_takes_a_mode():
    assert [(m, f) for m, f, args in _functions()
            if "mode" in {a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs}] == []


def test_the_product_choice_is_one_keyword_only_strong_flag():
    positional = [(m, f) for m, f, args in _functions()
                  if "strong" in {a.arg for a in args.posonlyargs + args.args}]
    assert positional == []
    keyword = {(m, f) for m, f, args in _functions()
               if "strong" in {a.arg for a in args.kwonlyargs}}
    assert keyword == {
        ("images", "product_image"), ("images", "power_image"),
        ("pathspace", "WedgeSpace.__init__"),
        ("complexity", "tc_n"), ("complexity", "tc_chain"),
        ("groups", "is_topological_group"),
        ("groups", "scan_group_structures"), ("groups", "product_group"),
        ("groups", "window_group_report"), ("groups", "window_alpha_pair"),
        ("corpus", "sum_map")}


def test_the_mode_vocabulary_and_its_translator_are_gone():
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    assert not names & {"product_mode", "MODES"}


def test_only_the_labels_something_reads_are_kept():
    def has_label(cls) -> bool:
        return "label" in {f.name for f in dataclasses.fields(cls)}

    for cls in (DigitalImage, DigitalMap, CayleyTable, WindowHomReport):
        assert not has_label(cls), cls.__name__
    for cls in (HomotopyWitness, WindowGroup, WindowReport):
        assert has_label(cls), cls.__name__


def test_state_that_nothing_reads_stays_gone():
    fields = {f.name for cls in (ProductAdjacency, WindowReport)
              for f in dataclasses.fields(cls)}
    assert not fields & {"right_dim", "window_size", "identity_in_window"}
    assert not hasattr(corpus, "LOOP_ORDER")


def test_a_fibration_is_its_own_wedge_space():
    classes, wedge_reads = {}, []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = ([_name(b) for b in node.bases],
                                    {c.name for c in node.body
                                     if isinstance(c, ast.FunctionDef)})
            elif isinstance(node, ast.Attribute) and node.attr == "wedge":
                wedge_reads.append((path.stem, node.lineno))
    assert wedge_reads == []
    assert "WedgeSpace" in classes["EndpointFibration"][0]
    assert "__init__" not in classes["EndpointFibration"][1]
    assert "PairedWedge" in classes["PairedFibration"][0]


def _on_tables(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and _name(call.func.value) == "CayleyTable")


def test_points_become_a_map_in_one_constructor():
    # maps made inside the package pass value indices straight in; every
    # `from_points` call but the table constructor's counts as the map's
    assert _calls({"from_points"}, where=lambda call: not _on_tables(call)) \
        == [("maps", "from_mapping", "from_points")]
    made = {name for name, attr in vars(DigitalMap).items()
            if isinstance(attr, (staticmethod, classmethod))}
    assert made == {"from_points", "from_mapping", "identity", "constant",
                    "inclusion", "inclusion_of"}
    assert "__post_init__" not in vars(DigitalMap)


def test_points_become_a_table_in_one_constructor():
    # tables made inside the package from their grids (the enumeration,
    # products, a translated table) pass carrier indices straight in;
    # only the corpus, files and restrictions read products as points
    assert _calls({"from_points", "from_function"}, where=_on_tables) == [
        ("corpus", "loop_rotation_table", "from_points"),
        ("corpus", "sign_table", "from_function"),
        ("corpus", "flip_table", "from_function"),
        ("fileio", "parse_group", "from_points"),
        ("groups", "from_function", "from_points"),
        ("knownvalues", "_restrict_table", "from_function")]
    assert {(m, f) for m, f, _ in _calls({"CayleyTable"})} == {
        ("groups", "from_points"), ("groups", "enumerate_group_structures"),
        ("groups", "product_group"),
        ("knownvalues", "run_reference_rows.translation_row")}
    made = {name for name, attr in vars(CayleyTable).items()
            if isinstance(attr, (staticmethod, classmethod))}
    assert made == {"from_points", "from_function"}
    assert "__post_init__" not in vars(CayleyTable)
    assert [f.name for f in dataclasses.fields(CayleyTable)] == [
        "image", "identity_index", "grid"]


def test_test_only_helpers_stay_in_the_tests():
    defined = {f for _, f, _ in _functions()}
    assert not defined & {"categorical_subsets", "MapGraph.all_states",
                          "WedgeSpace.is_wedge", "PairedWedge.is_wedge",
                          "PairedWedge.adjacent", "CayleyTable.inverse",
                          "WedgeSpace.endpoints", "PairedWedge.endpoints",
                          "DigitalImage.lex_shortest_path",
                          "DigitalImage.neighbors",
                          "SectionWitness.from_points"}


def test_the_section_checker_reads_no_point_index():
    # no `_index` lookup and no `.index(` call in the checker, its arm
    # tables, the certifier or the search's occupancy tables: they
    # compare indices
    checked = {("complexity", "verify_section"), ("complexity", "_certify"),
               ("complexity", "_ArmTable"), ("pathspace", "Occupancy")}
    seen, reads = set(), []
    for module in ("complexity", "pathspace"):
        tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if (module, getattr(node, "name", None)) not in checked:
                continue
            seen.add((module, node.name))
            reads += [(module, node.name, sub.lineno) for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute)
                      and sub.attr in ("_index", "index")]
    assert seen == checked
    assert reads == []


def test_subsets_reach_the_searches_as_index_masks():
    # the cover sweep, the oracle and the two piece searches take a subset
    # as the bitmask of its point indices: no point is looked up, no
    # subset re-sorted and no image restricted by points on the way
    searches = {("category", "piece_contraction"),
                ("complexity", "find_section")}
    assert searches <= {(m, f) for m, f, _ in _functions()}
    looked_up = _calls({"index", "mask", "canonical", "induced_subimage"})
    assert [c for c in looked_up
            if c[0] == "covers" or c[:2] in searches] == []
    defined = {f for _, f, _ in _functions()}
    assert not defined & {"AdmissibilityOracle.canonical",
                          "AdmissibilityOracle._keyed", "_verify_section"}
