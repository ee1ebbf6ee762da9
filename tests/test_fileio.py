"""File formats: byte-stable round trips and line-numbered diagnostics."""

from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditop.corpus import get_image, loop_image, reference_contractions, \
    loop_rotation_table
from ditop.fileio import (ParseError, load_group, load_homotopy, load_image,
                          load_map, parse_cover, parse_group, parse_homotopy,
                          parse_image, parse_map, parse_sections,
                          serialize_cover, serialize_group, serialize_homotopy,
                          serialize_image, serialize_map, serialize_sections)
from ditop.complexity import schwarz_genus, verify_section
from ditop.homotopy import contraction, verify_homotopy
from ditop.images import (CK, DigitalImage, Explicit, interval_image,
                          product_image)
from ditop.maps import DigitalMap
from ditop.pathspace import EndpointFibration

from helpers import (random_explicit_image, random_grid_image,
                     section_from_points)


def _corpus_resolver(name):
    if name.startswith("corpus:"):
        return get_image(name[len("corpus:"):])
    raise FileNotFoundError(name)


def test_image_round_trip_is_byte_stable_for_ck_adjacency():
    img = loop_image()
    text = serialize_image(img)
    again = parse_image(text)
    assert again.points == img.points
    assert set(again.edges()) == set(img.edges())
    assert serialize_image(again) == text


def test_image_round_trip_is_byte_stable_for_explicit_edges():
    img = DigitalImage(((0,), (1,), (5,)), Explicit.of([((0,), (5,))]))
    text = serialize_image(img)
    again = parse_image(text)
    assert serialize_image(again) == text
    assert set(again.edges()) == {((0,), (5,))}


@pytest.mark.parametrize("strong", [False, True], ids=["min", "strong"])
def test_product_images_are_written_as_their_explicit_edge_list(strong):
    img = product_image(interval_image(0, 2), loop_image(), strong=strong)
    text = serialize_image(img)
    assert text == serialize_image(
        DigitalImage(img.points, Explicit.of(img.edges())))
    again = parse_image(text)
    assert again.points == img.points
    assert again.edges() == img.edges()


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_image_round_trip_survives_random_inputs(seed):
    rng = random.Random(seed)
    img = (random_explicit_image(rng) if rng.random() < 0.5
           else random_grid_image(rng, connected=False))
    text = serialize_image(img)
    again = parse_image(text)
    assert again.points == img.points
    assert set(again.edges()) == set(img.edges())
    assert serialize_image(again) == text


def test_comments_and_blank_lines_are_ignored():
    text = """# a tiny segment

dim 1
adjacency c1   # the usual rule
point 0
point 1
"""
    img = parse_image(text)
    assert img.points == ((0,), (1,))
    assert len(img.edge_index_pairs) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_image("dim 1\nadjacency c1\npoint 0\npoint 0\n")
    assert info.value.line == 4
    assert "duplicate" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_image("dim 1\nadjacency c1\nmystery 3\n")
    assert info.value.line == 3

    with pytest.raises(ParseError) as info:
        parse_image("adjacency c1\npoint 0\n")
    assert "dim" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_image("dim 1\nadjacency explicit\npoint 0\nedge 0 1\n")
    assert info.value.line == 4


def test_map_round_trip_and_diagnostics(tmp_path):
    seg = interval_image(0, 2)
    img_file = tmp_path / "seg.img"
    img_file.write_text(serialize_image(seg), encoding="utf-8")
    f = DigitalMap.from_points(seg, seg, ((0,), (1,), (1,)))
    text = serialize_map(f, "seg.img", "seg.img")
    map_file = tmp_path / "f.map"
    map_file.write_text(text, encoding="utf-8")
    again = load_map(str(map_file))
    assert again.values == f.values
    assert serialize_map(again, "seg.img", "seg.img") == text

    missing = "map seg.img seg.img\npair 0 -> 0\npair 1 -> 1\n"
    bad_file = tmp_path / "missing.map"
    bad_file.write_text(missing, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_map(str(bad_file))
    assert "2" in str(info.value)

    twice = missing + "pair 1 -> 0\npair 2 -> 2\n"
    dup_file = tmp_path / "dup.map"
    dup_file.write_text(twice, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_map(str(dup_file))
    assert info.value.line == 4


def test_map_files_resolve_corpus_references(tmp_path):
    loop = loop_image()
    ident = DigitalMap.identity(loop)
    text = serialize_map(ident, "corpus:H", "corpus:H")
    f = tmp_path / "id.map"
    f.write_text(text, encoding="utf-8")
    again = load_map(str(f))
    assert again.values == ident.values


def test_homotopy_round_trip_preserves_verification(tmp_path):
    seg = interval_image(0, 3)
    w = contraction(seg)
    img_file = tmp_path / "seg.img"
    img_file.write_text(serialize_image(seg), encoding="utf-8")
    text = serialize_homotopy(w, "seg.img", "seg.img")
    h_file = tmp_path / "contract.hom"
    h_file.write_text(text, encoding="utf-8")
    again = load_homotopy(str(h_file))
    assert len(again.stages) == len(w.stages)
    ok, why = verify_homotopy(again)
    assert ok, why
    assert serialize_homotopy(again, "seg.img", "seg.img") == text


def test_reference_contractions_survive_the_file_format():
    f1, _ = reference_contractions()
    text = serialize_homotopy(f1, "corpus:piece", "corpus:H")

    def resolve(name):
        if name == "corpus:piece":
            return f1.stages[0].domain
        return _corpus_resolver(name)

    again = parse_homotopy(text, resolve)
    ok, why = verify_homotopy(again)
    assert ok, why
    assert [s.values for s in again.stages] == [s.values for s in f1.stages]


def test_group_round_trip_is_byte_stable(tmp_path):
    table = loop_rotation_table()
    text = serialize_group(table, "corpus:H")
    g_file = tmp_path / "rot.grp"
    g_file.write_text(text, encoding="utf-8")
    again = load_group(str(g_file))
    assert again.identity == table.identity
    assert again.entries == table.entries
    assert serialize_group(again, "corpus:H") == text


def test_group_parse_rejects_missing_rows(tmp_path):
    table = loop_rotation_table()
    lines = serialize_group(table, "corpus:H").splitlines()
    crippled = "\n".join(lines[:-1]) + "\n"
    g_file = tmp_path / "bad.grp"
    g_file.write_text(crippled, encoding="utf-8")
    with pytest.raises(ParseError):
        load_group(str(g_file))


def test_cover_round_trip():
    pieces = [((0,), (1,)), ((2,),)]
    text = serialize_cover(pieces)
    again = parse_cover(text)
    assert again == [((0,), (1,)), ((2,),)]
    assert serialize_cover(again) == text


def test_sections_round_trip_and_reverify():
    seg = interval_image(0, 1)
    fib = EndpointFibration(seg, 2, 1)
    k, wits = schwarz_genus(fib)
    text = serialize_sections(seg, wits, 2, 1)
    n, m, pieces = parse_sections(text)
    assert (n, m) == (2, 1)
    assert len(pieces) == k
    again = [section_from_points(fib, *piece) for piece in pieces]
    for sw in again:
        ok, why = verify_section(fib, sw)
        assert ok, why
    assert serialize_sections(seg, again, n, m) == text


def test_load_image_from_disk(tmp_path):
    img = loop_image()
    f = tmp_path / "loop.img"
    f.write_text(serialize_image(img), encoding="utf-8")
    again = load_image(str(f))
    assert again.points == img.points


def _parse_error(parse, text, *args):
    with pytest.raises(ParseError) as info:
        parse(text, *args)
    return info.value.line, str(info.value)


def test_map_and_group_records_name_their_own_line():
    seg = interval_image(0, 2)
    resolve = {"seg": seg}.__getitem__
    line, why = _parse_error(
        parse_map, "map seg seg\npair 0 -> 0\npair 1 -> 7\npair 2 -> 2\n",
        resolve)
    assert (line, why) == (3, "line 3: value (7,) is not in the codomain")
    line, why = _parse_error(
        parse_map,
        "map seg seg\npair 0 -> 0\npair 1 -> 1\npair 2 -> 2\npair 9 -> 0\n",
        resolve)
    assert (line, why) == (5, "line 5: (9,) is not a domain point")
    line, why = _parse_error(
        parse_group, "group seg\nidentity 5\nrow 0 : 0 1 2\n", resolve)
    assert (line, why) == (2, "line 2: identity (5,) is not in the carrier")
    line, why = _parse_error(
        parse_group, "group seg\nidentity 0\nrow 0 : 0 1 2\n"
                     "row 1 : 1 2 7\nrow 2 : 2 0 1\n", resolve)
    assert (line, why) == (4, "line 4: (1,) * (2,) = (7,) is outside the "
                              "carrier")


def test_homotopy_map_blocks_name_their_file_line():
    seg = interval_image(0, 1)
    resolve = {"seg": seg}.__getitem__
    text = ("# two stages\nstages 2\nmap seg seg\npair 0 -> 0\n"
            "pair 1 -> 1\n\nmap seg seg  # the second stage\n"
            "pair 0 -> 0\npair 1 -> 5\n")
    assert _parse_error(parse_homotopy, text, resolve) \
        == (9, "line 9: value (5,) is not in the codomain")
    # a block with no pairs names its own header
    text = "stages 2\nmap seg seg\npair 0 -> 0\npair 1 -> 1\nmap seg seg\n"
    assert _parse_error(parse_homotopy, text, resolve) \
        == (5, "line 5: no value for domain point (0,)")
    # so does a map file whose header sits below comments
    assert _parse_error(parse_map, "# empty\n\nmap seg seg\n", resolve) \
        == (3, "line 3: no value for domain point (0,)")


def test_check_continuity_names_the_line_of_a_value_off_the_codomain(
        tmp_path, capsys):
    (tmp_path / "seg.img").write_text(serialize_image(interval_image(0, 2)))
    path = tmp_path / "f.map"
    path.write_text("map seg.img seg.img\npair 0 -> 0\npair 1 -> 7\n"
                    "pair 2 -> 2\n")
    from ditop.cli import main
    assert main(["check-continuity", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: line 3: value (7,) is not in the codomain")


def test_check_continuity_names_the_image_file_of_a_parse_error(
        tmp_path, capsys):
    # the duplicate sits on line 4 of the image file; the map file has two
    img = tmp_path / "seg.img"
    img.write_text("dim 1\nadjacency c1\npoint 0\npoint 0\n")
    path = tmp_path / "f.map"
    path.write_text("map seg.img seg.img\npair 0 -> 0\n")
    from ditop.cli import main
    assert main(["check-continuity", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {img}: line 4: duplicate point (0,) (first at line 3)\n")


def test_witness_parsers_check_what_their_headers_announce():
    cases = [
        (parse_cover, "cover 3\npiece 1\npoint 0\n",
         (1, "line 1: cover announced 3 pieces, lists 1")),
        (parse_cover, "cover 1\npiece\npoint 0\n",
         (2, "line 2: piece wants one point count")),
        (parse_cover, "cover 1\npiece 2\npoint 0\n",
         (2, "line 2: piece announced 2 points, lists 1")),
        (parse_sections, "sections 1 arms 2 length 0\npiece 1\nat 0\narm 0\n",
         (3, "line 3: point has 1 arms, wants 2")),
        (parse_sections, "sections 5 arms 2 length 0\npiece 1\nat 0\narm 0\n",
         (1, "line 1: sections announced 5 pieces, lists 1")),
        (parse_sections, "sections 1 arms x length 0\n",
         (1, "line 1: expected integers, got 1 x 0")),
        (parse_sections, "sections 1 arms 1 length 0\npiece\nat 0\narm 0\n",
         (2, "line 2: piece wants one point count")),
        (parse_sections,
         "sections 1 arms 1 length 0\npiece 2\nat 0\narm 0\n",
         (2, "line 2: piece announced 2 points, lists 1")),
        (parse_sections,
         "sections 1 arms 1 length 0\npiece 2\nat 0\nat 1\narm 1\n",
         (3, "line 3: point has 0 arms, wants 1")),
    ]
    for parse, text, want in cases:
        assert _parse_error(parse, text) == want, text
    assert _parse_error(parse_homotopy, "stages 1 2\n", None) \
        == (1, "line 1: stages wants one count")


@pytest.mark.parametrize("command, strong", [
    ("tc corpus:H -n 3", False),
    ("genus corpus:cycle:4 -n 1 --m 5 --mode strong", True)])
def test_written_sections_read_back_certify_and_rewrite(command, strong,
                                                        capsys):
    from ditop.cli import main
    from ditop.complexity import _certify
    assert main(command.split() + ["--json"]) == 0
    text = json.loads(capsys.readouterr().out)["witnesses"]["sections"]
    base = get_image(command.split()[1][len("corpus:"):])
    n, m, pieces = parse_sections(text)
    fib = EndpointFibration(base, n, m, strong=strong)
    wits = [section_from_points(fib, *piece) for piece in pieces]
    _certify(fib, wits, "read back")
    assert serialize_sections(base, wits, n, m) == text
    points, wedges = pieces[0]
    outside = tuple(9 for _ in points[0])
    with pytest.raises(ValueError, match=re.escape(str(outside))):
        section_from_points(fib, (outside,) + points[1:], wedges)
    arm = ((9, 9),) + wedges[0][0][1:]
    with pytest.raises(ValueError, match=re.escape("(9, 9)")):
        section_from_points(fib, points, (
            (arm,) + wedges[0][1:],) + wedges[1:])
