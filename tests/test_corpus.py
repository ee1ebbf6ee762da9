"""Bundled inputs: shapes, the reference contractions, name resolution."""

from __future__ import annotations

import pytest

from ditop.corpus import (UnknownCorpusName, cycle_image, get_image, get_map,
                          get_table, get_window_group, loop_cover,
                          loop_image, loop_letter, loop_rotation_table,
                          point_image, reference_contractions, sign_embedding,
                          sign_image, sum_map, z2_window, z_window)
from ditop.homotopy import verify_homotopy
from ditop.images import interval_image
from ditop.maps import continuity_violation, is_continuous

from helpers import loop_bundle, neighbors


def test_loop_points_and_letters():
    loop = loop_image()
    assert len(loop.points) == 8
    assert loop.is_connected
    assert loop.diameter == 4
    for p in loop.points:
        assert len(neighbors(loop, p)) == 2
    letters = {loop_letter(p) for p in loop.points}
    assert letters == set("abcdefgh")
    assert loop_letter((0, 0)) == "b"
    assert loop_letter((2, 1)) == "e"


def test_loop_cover_pieces_are_the_two_arcs():
    m1, m2 = loop_cover()
    assert {loop_letter(p) for p in m1} == set("bcde")
    assert {loop_letter(p) for p in m2} == set("afgh")


def test_reference_contractions_shape_and_targets():
    f1, f2 = reference_contractions()
    assert len(f1.stages) == 4
    assert len(f2.stages) == 4
    ok, why = verify_homotopy(f1)
    assert ok, why
    ok, why = verify_homotopy(f2)
    assert ok, why
    assert set(f1.stages[-1].values) == {(2, 1)}
    assert set(f2.stages[-1].values) == {(0, -1)}


def test_reference_contraction_stages_match_the_written_tables():
    f1, _ = reference_contractions()
    # s0 is the inclusion; s1 only moves b to c; s2 sends b, c to d;
    # s3 is constant at e
    by_letter = lambda stage: {loop_letter(p): loop_letter(stage(p))
                               for p in stage.domain.points}
    s0, s1, s2, s3 = f1.stages
    assert by_letter(s0) == {"b": "b", "c": "c", "d": "d", "e": "e"}
    assert by_letter(s1) == {"b": "c", "c": "c", "d": "d", "e": "e"}
    assert by_letter(s2) == {"b": "d", "c": "d", "d": "d", "e": "e"}
    assert by_letter(s3) == {"b": "e", "c": "e", "d": "e", "e": "e"}


def test_second_contraction_stages_match_the_written_tables():
    _, f2 = reference_contractions()
    by_letter = lambda stage: {loop_letter(p): loop_letter(stage(p))
                               for p in stage.domain.points}
    s0, s1, s2, s3 = f2.stages
    assert by_letter(s0) == {"a": "a", "f": "f", "g": "g", "h": "h"}
    assert by_letter(s1) == {"a": "a", "f": "g", "g": "g", "h": "h"}
    assert by_letter(s2) == {"a": "a", "f": "h", "g": "h", "h": "h"}
    assert by_letter(s3) == {"a": "a", "f": "a", "g": "a", "h": "a"}


def test_rotation_table_carrier_is_the_loop():
    table = loop_rotation_table()
    assert table.image.points == loop_image().points
    assert table.identity == (0, 0)


def test_cycle_images():
    sq = cycle_image(4)
    assert len(sq.points) == 4
    assert all(len(neighbors(sq, p)) == 2 for p in sq.points)
    big = cycle_image(12)
    assert len(big.points) == 12
    assert big.is_connected
    assert all(len(neighbors(big, p)) == 2 for p in big.points)
    with pytest.raises(ValueError):
        cycle_image(7)
    with pytest.raises(ValueError):
        cycle_image(2)


def test_windows_are_plain_boxes():
    assert len(z_window(0, 9).points) == 10
    assert len(z2_window(0, 3, 0, 3).points) == 16
    assert z2_window(0, 1, 0, 1).is_connected


def test_sum_map_modes():
    assert is_continuous(sum_map(0, 9))
    f = sum_map(0, 9, strong=True)
    bad = continuity_violation(f)
    assert bad is not None
    u, v = bad
    # a diagonal strong step moves the sum by two
    assert abs(f(u)[0] - f(v)[0]) > 1


def test_sign_objects():
    img = sign_image()
    assert img.points == ((-1,), (1,))
    assert len(img.edge_index_pairs) == 0
    emb = sign_embedding()
    assert emb((-1,)) == (9,)
    assert emb((1,)) == (8,)


def test_image_resolver_names():
    assert get_image("H").points == loop_image().points
    assert get_image("point").points == point_image().points
    assert get_image("interval:4").points == interval_image(0, 4).points
    assert get_image("interval:2:5").points == interval_image(2, 5).points
    assert get_image("cycle:8").points == cycle_image(8).points
    assert get_image("zwindow:0:9").points == z_window(0, 9).points
    assert get_image("z2window:0:1:0:1").points == z2_window(0, 1, 0, 1).points
    assert get_image("pm1").points == sign_image().points


def test_resolvers_reject_unknown_names_with_a_catalog():
    with pytest.raises(UnknownCorpusName) as info:
        get_image("mystery")
    assert "interval" in str(info.value)
    with pytest.raises(UnknownCorpusName):
        get_table("mystery")
    with pytest.raises(UnknownCorpusName):
        get_window_group("mystery")
    with pytest.raises(UnknownCorpusName):
        get_map("mystery")
    with pytest.raises(ValueError):
        get_image("interval:x")


def test_table_and_window_and_map_resolvers():
    assert get_table("Hrot").identity == (0, 0)
    assert get_table("pm1mul").identity == (1,)
    assert get_table("flip:8").identity == (8,)
    assert get_window_group("zplus").label.startswith("zplus")
    assert get_window_group("z2plus").identity == (0, 0)
    assert get_window_group("mulwin").identity == (1,)
    assert get_map("proj1").codomain.dim == 1
    assert get_map("sum:0:3").domain.dim == 2
    assert get_map("sum:0:3:strong") is not None
    assert get_map("pm1embed")((1,)) == (8,)


def test_loop_bundle_is_internally_consistent():
    loop, table, cover = loop_bundle()
    assert table.image.points == loop.points
    covered = set()
    for piece in cover:
        covered.update(piece)
    assert covered == set(loop.points)
