"""Command-line surface: exit codes, determinism, reusable witnesses."""

from __future__ import annotations

import gc
import json

import pytest

from ditop.cli import main
from ditop.complexity import TheoremViolation, verify_section
from ditop.corpus import get_image, loop_image
from ditop.fileio import parse_homotopy, parse_image, parse_sections, \
    serialize_image
from ditop.homotopy import contraction, verify_homotopy
from ditop.images import CK, DigitalImage, interval_image
from ditop.maps import DigitalMap
from ditop.pathspace import EndpointFibration

from helpers import record_search_states, section_from_points, theta_image


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_image_info_reports_the_essentials(capsys):
    code, out, err = run(capsys, "image-info", "corpus:H")
    assert code == 0
    assert "points: 8" in out
    assert "edges: 8" in out
    assert "adjacency: c1" in out
    assert "connected: True" in out
    assert "elapsed" in err


def test_stdout_is_deterministic_across_runs(capsys):
    _, first, _ = run(capsys, "cat", "corpus:H")
    _, second, _ = run(capsys, "cat", "corpus:H")
    assert first == second


def test_json_flag_emits_the_structured_document(capsys):
    code, out, _ = run(capsys, "image-info", "corpus:H", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["points"] == 8
    assert sorted(doc) == ["command", "inputs", "notes", "results",
                           "settings", "witnesses"]


def test_out_flag_writes_the_same_document(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "image-info", "corpus:H", "--json",
                       "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8")) == json.loads(out)


@pytest.mark.parametrize("case", ["directory input", "out in missing dir"])
def test_bad_paths_exit_1_naming_the_path(tmp_path, capsys, case):
    if case == "directory input":
        path = str(tmp_path)
        argv = ["image-info", path]
    else:
        path = str(tmp_path / "missing" / "r.json")
        argv = ["image-info", "corpus:H", "--out", path]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and path in err
    assert "Traceback" not in err
    assert out == ""


def test_check_continuity_verdicts(capsys):
    code, out, _ = run(capsys, "check-continuity", "corpus:sum:0:5")
    assert code == 0
    assert "continuous: True" in out
    code, out, _ = run(capsys, "check-continuity", "corpus:sum:0:5:strong")
    assert code == 2
    assert "continuous: False" in out
    assert "violation_edge" in out


def test_contractible_verdicts_and_exit_codes(capsys):
    code, out, _ = run(capsys, "contractible", "corpus:interval:4")
    assert code == 0
    assert "contractible: True" in out
    code, out, _ = run(capsys, "contractible", "corpus:H")
    assert code == 2
    assert "contractible: False" in out


def test_cat_witnesses_reload_and_reverify(tmp_path, capsys):
    code, out, _ = run(capsys, "cat", "corpus:H", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["cat"] == 2
    wits = doc["witnesses"]
    written = {}
    for name, text in wits.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        written[name] = path

    def resolve(name):
        if name in written:
            return parse_image(written[name].read_text(encoding="utf-8"))
        if name.startswith("corpus:"):
            return get_image(name[len("corpus:"):])
        raise FileNotFoundError(name)

    loop = loop_image()
    for k in (0, 1):
        w = parse_homotopy(wits[f"piece{k}.contraction"], resolve)
        ok, why = verify_homotopy(w)
        assert ok, why
        assert w.stages[0].codomain.points == loop.points


def test_tc_reproduces_the_reference_values(capsys):
    code, out, _ = run(capsys, "tc", "corpus:H", "-n", "1")
    assert code == 0
    assert "tc: 1" in out
    code, out, _ = run(capsys, "tc", "corpus:H", "-n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["tc"] == 2
    n, m, pieces = parse_sections(doc["witnesses"]["sections"])
    assert (n, m) == (2, 4)
    fib = EndpointFibration(loop_image(), 2, 4)
    covered = set()
    for piece in pieces:
        sw = section_from_points(fib, *piece)
        ok, why = verify_section(fib, sw)
        assert ok, why
        covered.update(sw.piece)
    assert len(covered) == 64


def test_tc_three_reports_bounds_and_exact_flag_fails(capsys):
    code, out, _ = run(capsys, "tc", "corpus:H", "-n", "3")
    assert code == 0
    assert "tc_lower: 2" in out
    assert "tc_upper: 4" in out
    code, _, err = run(capsys, "tc", "corpus:H", "-n", "3", "--exact")
    assert code == 1
    assert "error" in err


def test_genus_command_and_unreachable_exit(capsys):
    code, out, _ = run(capsys, "genus", "corpus:interval:1", "-n", "2",
                       "--m", "1")
    assert code == 0
    assert "genus: 1" in out
    code, out, _ = run(capsys, "genus", "corpus:interval:2", "-n", "2",
                       "--m", "0")
    assert code == 2
    assert "impossible" in out


def test_genus_names_endpoints_in_two_components(tmp_path, capsys):
    # no arm length joins 0 and 5, so no advice to raise it
    path = tmp_path / "apart.img"
    path.write_text(serialize_image(DigitalImage(((0,), (1,), (5,)), CK(1))),
                    encoding="utf-8")
    code, out, err = run(capsys, "genus", str(path), "-n", "2", "--m", "1")
    assert code == 2
    assert "\ngenus: impossible\n" in out
    assert ("note: endpoint tuple (0, 5) is unreachable: its points lie in "
            "different components\n") in out
    assert "raise the arm length" not in out
    assert "Traceback" not in err


def test_tc_reports_an_impossible_cover_and_exits_two(capsys):
    for image, m, unreachable in (("corpus:interval:1", "0", "(0, 1)"),
                                  ("corpus:cycle:4", "0", "(0, 0, 0, 1)"),
                                  ("corpus:H", "1", "(0, -1, 1, 1)")):
        code, out, err = run(capsys, "tc", image, "-n", "2", "--m", m)
        assert code == 2, image
        assert "\ntc: impossible\n" in out
        assert (f"note: endpoint tuple {unreachable} is unreachable by arms "
                f"of length {m}; raise the arm length") in out
        assert "Traceback" not in err


def test_tc_rejects_a_negative_arm_length(capsys):
    for image in ("corpus:cycle:16", "corpus:H", "corpus:interval:1"):
        code, out, err = run(capsys, "tc", image, "--m", "-1")
        assert code == 1, image
        assert out == ""
        assert "error: arm length cannot be negative" in err


@pytest.mark.parametrize("n", ["2", "3"])
def test_tc_notes_an_arm_length_too_short_for_the_group_route(capsys, n):
    # arms of length 3 reach every endpoint tuple, so the category still
    # bounds TC_n from below; the translation sections need 4
    code, out, err = run(capsys, "tc", "corpus:H", "-n", n, "--m", "3")
    assert code == 0
    assert "tc_lower: 2\ntc_upper: ?\n" in out
    assert ("note: group route unavailable: arm length 3 is too short: the "
            "translation sections need at least 4\n") in out
    assert "error" not in err


def test_tc_notes_an_arm_length_too_short_for_the_contraction(capsys):
    code, out, _ = run(capsys, "tc", "corpus:interval:3", "-n", "2",
                       "--m", "2")
    assert code == 0
    assert "tc_lower: 1\ntc_upper: ?\n" in out
    assert ("note: contractible-base route skipped: the contraction takes 3 "
            "steps, more than the arm length 2\n") in out


def test_group_check_exit_codes(capsys):
    code, out, _ = run(capsys, "group-check", "corpus:Hrot")
    assert code == 0
    assert "topological: True" in out
    code, out, _ = run(capsys, "group-check", "corpus:zplus",
                       "--mode", "strong")
    assert code == 2
    assert "alpha_violation" in out
    code, out, _ = run(capsys, "group-check", "corpus:mulwin")
    assert code == 2
    assert "inverse_missing" in out


def test_group_check_reads_the_axioms_off_the_one_verdict(tmp_path, capsys):
    from ditop.fileio import serialize_group
    from ditop.groups import CayleyTable, enumerate_group_structures

    seg = interval_image(0, 2)
    (tmp_path / "seg.txt").write_text(serialize_image(seg))
    torn = next(enumerate_group_structures(seg))  # Z/3 tears the path
    rows = [list(row) for row in torn.entries]
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    broken = CayleyTable.from_points(seg, torn.identity, rows)
    for name, table, axioms in (("torn", torn, True),
                                ("broken", broken, False)):
        path = tmp_path / f"{name}.grp"
        path.write_text(serialize_group(table, "seg.txt"))
        code, out, _ = run(capsys, "group-check", str(path))
        assert code == 2
        assert f"group_axioms: {axioms}" in out
        assert ("alpha_violation" in out or "beta_violation" in out) == axioms


def test_group_check_rejects_a_row_outside_the_carrier(tmp_path, capsys):
    # a table is closed by construction: such a file is a user error
    (tmp_path / "seg.txt").write_text(serialize_image(interval_image(0, 2)))
    path = tmp_path / "open.grp"
    path.write_text("group seg.txt\nidentity 0\nrow 0 : 0 1 2\n"
                    "row 1 : 1 2 0\nrow 2 : 2 0 3\n")
    code, out, err = run(capsys, "group-check", str(path))
    assert (code, out) == (1, "")
    assert "line 5: (2,) * (2,) = (3,) is outside the carrier" in err


def test_group_scan_over_prime_intervals(capsys):
    code, out, _ = run(capsys, "group-scan", "-p", "3")
    assert code == 0
    assert "3 structures, 0 topological" in out
    assert out.count("breaks at") == 3
    code, out, _ = run(capsys, "group-scan", "corpus:pm1")
    assert code == 0
    assert "2 structures, 2 topological" in out


def test_group_scan_refuses_an_image_and_a_point_count_together(capsys):
    # both name a carrier; neither may be dropped without a word
    code, out, err = run(capsys, "group-scan", "corpus:H", "-p", "3")
    assert code == 1 and out == ""
    assert "-p 3" in err and "corpus:H" in err


def test_group_product_builds_a_reusable_witness(tmp_path, capsys):
    code, out, _ = run(capsys, "group-product", "corpus:pm1mul",
                       "corpus:flip:8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["topological"] is True
    img_text = doc["witnesses"]["product.img"]
    grp_text = doc["witnesses"]["product.group"]
    (tmp_path / "product.img").write_text(img_text, encoding="utf-8")
    (tmp_path / "product.grp").write_text(grp_text, encoding="utf-8")
    from ditop.fileio import load_group
    from ditop.groups import is_topological_group, verify_cayley
    table = load_group(str(tmp_path / "product.grp"))
    assert verify_cayley(table) == []
    assert is_topological_group(table).ok


def test_hom_check_window_and_finite_routes(capsys):
    code, out, _ = run(capsys, "hom-check", "corpus:z2plus", "corpus:zplus",
                       "proj1")
    assert code == 0
    assert "homomorphism: True" in out
    assert "injective_on_window: False" in out
    code, out, _ = run(capsys, "hom-check", "corpus:pm1mul", "corpus:flip:8",
                       "corpus:pm1embed")
    assert code == 0
    assert "homomorphism: True" in out
    assert "isomorphism: False" in out
    assert "inverse_continuous: False" in out


def test_hom_check_decides_a_finite_map_with_one_algebra_check(
        capsys, monkeypatch):
    # one homomorphism check, then continuity of the map and its inverse
    from ditop import cli, groups
    calls = {"algebra": 0, "continuity": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(groups, "is_group_homomorphism", counted(
        groups.is_group_homomorphism, "algebra"))
    for module in (groups, cli):
        monkeypatch.setattr(module, "continuity_violation", counted(
            module.continuity_violation, "continuity"))
    code, out, _ = run(capsys, "hom-check", "corpus:pm1mul", "corpus:flip:8",
                       "corpus:pm1embed")
    assert code == 0 and "inverse_violation: (8,) ~ (9,)" in out
    assert calls == {"algebra": 1, "continuity": 2}


def test_verify_paper_passes_and_budget_degrades_gracefully(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "mismatched: 0" in out
    assert "within paper bound" in out
    code, out, _ = run(capsys, "verify-paper", "--budget", "2")
    assert code == 0
    assert "inconclusive (budget exhausted)" in out


def test_verify_paper_spends_one_budget_on_all_its_rows(capsys):
    # its six map-graph searches visit 8 states each, so a budget of 8
    # fits each one alone but runs out across the rows
    code, out, _ = run(capsys, "verify-paper", "--budget", "8")
    assert code == 0
    assert "\ninconclusive: 4\nmatched: 23\nmismatched: 0\n" in out


@pytest.mark.parametrize("command", ["cat", "tc"])
def test_one_budget_caps_all_the_searches_of_a_cat_or_tc_run(
        command, tmp_path, capsys, monkeypatch):
    # theta's category (tc's lower bound) settles its pieces in six
    # searches of at most 12 states each
    path = tmp_path / "theta.img"
    path.write_text(serialize_image(theta_image()), encoding="utf-8")
    sizes = record_search_states(monkeypatch)
    _, out, _ = run(capsys, command, str(path))
    need, most = sum(sizes), max(sizes)
    assert len(sizes) == 6 and most < need
    sizes.clear()
    code, answered, _ = run(capsys, command, str(path), "--budget", str(need))
    assert code == 0 and sum(sizes) <= need
    # the same report, but for the command line and the budget setting
    assert answered.replace(f"budget={need}", "budget=2000000") \
        .splitlines()[1:] == out.splitlines()[1:]
    # enough for the largest search alone, not for all of them together
    code, out, _ = run(capsys, command, str(path), "--budget", str(most))
    assert code == 0 and f"\n{command}: unknown\n" in out
    assert (f"note: budget exhausted: map-graph search exceeded {most} "
            f"states") in out


def test_verify_paper_computes_each_tc_of_the_loop_once(monkeypatch):
    from ditop import knownvalues

    calls = []
    real = knownvalues.tc_n

    def counted(base, n, *args, **kwargs):
        calls.append((base, n))
        return real(base, n, *args, **kwargs)

    monkeypatch.setattr(knownvalues, "tc_n", counted)
    rows = knownvalues.run_reference_rows()
    assert all(row.ok for row in rows)
    assert sorted(n for base, n in calls if base == loop_image()) == [1, 2, 3]


def test_verify_paper_catches_a_perturbed_reference(capsys, monkeypatch):
    from ditop import knownvalues
    from ditop.groups import CayleyTable
    from ditop.images import DigitalImage, Explicit

    loop = loop_image()
    broken = DigitalImage(loop.points, Explicit.of(loop.edges()[:-1]))
    rot = knownvalues.loop_rotation_table()
    table = CayleyTable(broken, rot.identity_index, rot.grid)
    monkeypatch.setattr(knownvalues, "loop_rotation_table", lambda: table)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 2
    assert "MISMATCH" in out


def test_budget_exhaustion_reports_inside_the_document(capsys):
    code, out, _ = run(capsys, "contractible", "corpus:H", "--budget", "3")
    assert code == 0
    assert "contractible: unknown" in out
    assert "budget exhausted" in out


def test_tc_past_the_sweep_limit_keeps_the_refuted_contraction(capsys):
    # the 20-point frame is too large for the exact category, but the
    # contraction search that found none bounds it below by 2
    code, out, _ = run(capsys, "tc", "corpus:cycle:20", "-n", "3", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"] == {"tc_lower": 2, "tc_upper": "?"}
    assert doc["notes"][0] == "lower 2: the base does not contract, so cat >= 2"


def test_tc_past_the_sweep_limit_names_a_failed_strong_section(capsys):
    # the 16-point interval contracts, so its category is 1, but the
    # section replaying the contraction breaks the strong relation
    code, out, _ = run(capsys, "tc", "corpus:interval:0:15", "--mode",
                       "strong", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"] == {"tc_lower": 1, "tc_upper": "?"}
    assert doc["notes"][:2] == [
        "contractible-base route skipped: its section fails the strong "
        "relation: section jumps across the edge (0, 1) ~ (0, 2): assigned "
        "wedges are not within one step",
        "lower 1: the base contracts, so cat = 1"]


@pytest.mark.parametrize("fault", [AssertionError, TheoremViolation])
def test_verify_paper_lets_a_failed_self_check_propagate(capsys, monkeypatch,
                                                          fault):
    # a proved construction that fails its check is a fault of the
    # program, not an ERROR row that exits 2 like a mismatch
    from ditop import complexity

    def broken(*args):
        raise fault("a section failed verification")

    monkeypatch.setattr(complexity, "_certify", broken)
    with pytest.raises(fault):
        main(["verify-paper"])
    capsys.readouterr()


def test_tc_notes_a_shortcut_that_ran_out_of_budget(capsys):
    code, out, _ = run(capsys, "tc", "corpus:cycle:16", "--budget", "10")
    assert code == 0
    assert "tc_lower: 1" in out  # an unsettled contraction refutes nothing
    assert ("note: contractible-base route skipped, budget exhausted: "
            "map-graph search exceeded 10 states") in out


def test_error_paths_exit_one(capsys):
    code, _, err = run(capsys, "image-info", "corpus:mystery")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "image-info", "no/such/file.img")
    assert code == 1
    with pytest.raises(SystemExit) as info:
        main(["cat"])
    assert info.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, option", [
    (("contractible", "corpus:H", "--budget", "-1"), "--budget"),
    (("cat", "corpus:H", "--budget", "-5"), "--budget"),
    (("group-scan", "-p", "0"), "-p"),
    (("group-scan", "-p", "-2"), "-p"),
])
def test_out_of_range_counts_exit_1_naming_the_option(capsys, argv, option):
    # a negative budget used to run and answer "unknown"; a point count
    # below 1 used to fail on an internal interval the user never named
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out = capsys.readouterr()
    assert info.value.code == 1 and out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {option}: " in errors[0], errors
    assert "interval" not in errors[0]
    if option == "-p":
        assert "positive point count" in errors[0]


def test_a_zero_budget_is_valid_and_runs_out_at_once(capsys):
    code, out, _ = run(capsys, "contractible", "corpus:H", "--budget", "0")
    assert code == 0
    assert "contractible: unknown" in out
    assert "map-graph search exceeded 0 states" in out


def test_file_inputs_work_end_to_end(tmp_path, capsys):
    seg = interval_image(0, 3)
    path = tmp_path / "seg.img"
    path.write_text(serialize_image(seg), encoding="utf-8")
    code, out, _ = run(capsys, "image-info", str(path))
    assert code == 0
    assert "points: 4" in out
    code, out, _ = run(capsys, "cat", str(path))
    assert code == 0
    assert "cat: 1" in out


def test_homotopic_command(tmp_path, capsys):
    seg = interval_image(0, 2)
    (tmp_path / "seg.img").write_text(serialize_image(seg), encoding="utf-8")
    ident = DigitalMap.identity(seg)
    const = DigitalMap.from_points(seg, seg, ((0,),) * 3)
    from ditop.fileio import serialize_map
    (tmp_path / "f.map").write_text(serialize_map(ident, "seg.img", "seg.img"),
                                    encoding="utf-8")
    (tmp_path / "g.map").write_text(serialize_map(const, "seg.img", "seg.img"),
                                    encoding="utf-8")
    code, out, _ = run(capsys, "homotopic", str(tmp_path / "f.map"),
                       str(tmp_path / "g.map"))
    assert code == 0
    assert "homotopic: True" in out


def test_homotopic_rejects_maps_on_different_domains(tmp_path, capsys):
    from ditop.fileio import serialize_map
    for name, hi in (("short", 1), ("long", 2)):
        seg = interval_image(0, hi)
        (tmp_path / f"{name}.img").write_text(serialize_image(seg),
                                              encoding="utf-8")
        (tmp_path / f"{name}.map").write_text(
            serialize_map(DigitalMap.identity(seg), f"{name}.img",
                          f"{name}.img"), encoding="utf-8")
    code, out, err = run(capsys, "homotopic", str(tmp_path / "short.map"),
                         str(tmp_path / "long.map"))
    assert code == 1
    assert out == ""
    assert "error: maps must share domain and codomain" in err


def test_every_search_command_answers_unknown_when_its_budget_runs_out(
        tmp_path, capsys):
    from ditop.fileio import serialize_map
    # the identity of a 4-point segment is two steps from a constant, so
    # a one-state budget runs out before the search looks ahead to it
    seg = interval_image(0, 3)
    (tmp_path / "seg.img").write_text(serialize_image(seg), encoding="utf-8")
    const = DigitalMap.from_points(seg, seg, ((0,),) * 4)
    for name, dm in (("f", DigitalMap.identity(seg)), ("g", const)):
        (tmp_path / f"{name}.map").write_text(
            serialize_map(dm, "seg.img", "seg.img"), encoding="utf-8")
    cases = (
        ("homotopic", str(tmp_path / "f.map"), str(tmp_path / "g.map"),
         "--budget", "1"),
        ("cat", "corpus:H", "--budget", "3"),
        ("tc", "corpus:H", "--budget", "3"),
    )
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert f"\n{argv[0]}: unknown\n" in out
        assert (f"note: budget exhausted: map-graph search exceeded "
                f"{argv[-1]} states") in out
        assert f"budget={argv[-1]}" in out


def test_genus_takes_no_budget_but_a_capped_fiber_ends_unknown(
        monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        main(["genus", "corpus:interval:1", "-n", "2", "--m", "1",
              "--budget", "5"])
    assert info.value.code == 1
    capsys.readouterr()
    argv = ("genus", "corpus:interval:1", "-n", "2", "--m", "1", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["settings"] == {"m": 1, "mode": "pointwise",
                                           "n": 2}

    import ditop.cli
    from ditop.homotopy import BudgetExhausted

    def capped(fib):
        raise BudgetExhausted("fiber over (0,) exceeds 20000 wedges")

    monkeypatch.setattr(ditop.cli, "schwarz_genus", capped)
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0
    assert doc["results"] == {"genus": "unknown"}
    assert doc["notes"] == [
        "budget exhausted: fiber over (0,) exceeds 20000 wedges"]


def test_a_theorem_violation_is_not_a_user_error(monkeypatch, capsys):
    import ditop.cli
    from ditop.complexity import TheoremViolation

    def broken(*args, **kwargs):
        raise TheoremViolation("a proved bound failed")

    monkeypatch.setattr(ditop.cli, "tc_n", broken)
    with pytest.raises(TheoremViolation):
        main(["tc", "corpus:H"])
    assert capsys.readouterr().out == ""


def test_tc_of_the_c2_frame_uses_the_shortest_contraction(tmp_path, capsys):
    # the frame is contractible in 3 steps; the folded search's lifted
    # witness is longer, and tc reads the contraction's length as its arm
    # length, so arms of length 3 need the shortest witness
    frame = DigitalImage(tuple((x, y) for x in range(3) for y in range(3)
                               if (x, y) != (1, 1)), CK(2))
    assert contraction(frame).steps == 3
    path = tmp_path / "frame.img"
    path.write_text(serialize_image(frame), encoding="utf-8")
    code, out, _ = run(capsys, "tc", str(path), "-n", "2", "--m", "3",
                       "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["results"]["tc"] == 1
    assert doc["notes"] == [
        "contractible base: one global section at arm length 3"]


def test_the_c2_frame_is_contractible_within_a_budget_of_100_states(
        tmp_path, capsys):
    # the shortest contraction takes 3 steps; the search stops when the
    # first state with a constant next to it arrives, at 85 states, where
    # a goal test on arrival stored 6,508 before it met a constant
    frame = DigitalImage(tuple((x, y) for x in range(3) for y in range(3)
                               if (x, y) != (1, 1)), CK(2))
    path = tmp_path / "frame.img"
    path.write_text(serialize_image(frame), encoding="utf-8")
    code, out, _ = run(capsys, "contractible", str(path), "--budget", "100")
    assert code == 0
    assert "contractible: True" in out
    assert "stages: 4" in out


def test_a_second_call_leaves_no_cyclic_garbage_of_parsers_or_witnesses(
        capsys):
    # a parser is a reference cycle, and so was the cat oracle with its
    # search; left to the cyclic collector, they make peak memory follow
    # collection timing rather than the solver
    run(capsys, "cat", "corpus:H", "--json")
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(capsys, "cat", "corpus:H", "--json")
        gc.collect()
        leaked = {type(o).__module__ for o in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
    assert not {m for m in leaked if m == "argparse" or m.startswith("ditop")}


def test_cat_bounds_settles_contractibility_past_twelve_points(capsys):
    # the c1 boundaries of the 5x5, 6x6 and 8x8 boxes, past the sweep
    # limit: the identity's search is small at any size, so the whole
    # image is refuted and the lower bound is 2
    for ref in ("corpus:cycle:16", "corpus:cycle:20", "corpus:cycle:28"):
        code, out, _ = run(capsys, "cat", ref, "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"] == {"cat_lower": 2, "cat_upper": 2}
        assert doc["notes"][-1] == "lower 2: the whole image is not admissible"


def test_cat_reports_bounds_past_a_lowered_sweep_limit(capsys, monkeypatch):
    # the size test reads the limit at call time: the 8-point loop moves
    # from the exact sweep to the bracket
    from ditop import covers
    monkeypatch.setattr(covers, "SWEEP_LIMIT", 7)
    code, out, _ = run(capsys, "cat", "corpus:H", "--json")
    assert code == 0
    assert json.loads(out)["results"] == {"cat_lower": 2, "cat_upper": 2}


def test_cat_takes_no_exact_flag(capsys):
    # the exact value is the default; the flag that named it is gone
    with pytest.raises(SystemExit) as info:
        main(["cat", "corpus:H", "--exact"])
    assert info.value.code == 1
    assert "unrecognized arguments: --exact" in capsys.readouterr().err


def test_bounds_is_a_cat_flag_only(capsys):
    # the bounds are a `cat` report that the image size picks, not a flag:
    # `cat` no longer takes `--bounds`, and `tc` never did
    for argv in (["cat", "corpus:H", "--bounds"],
                 ["tc", "corpus:H", "-n", "2", "--bounds"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "unrecognized arguments: --bounds" in capsys.readouterr().err
