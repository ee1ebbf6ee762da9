"""Category: reference values, witness integrity, invariance, bounds."""

from __future__ import annotations

import random

import pytest

import ditop.category as category
import ditop.homotopy as homotopy
from ditop.category import cat, cat_bounds, cat_exact, piece_contraction
from ditop.corpus import cycle_image, get_image, loop_cover, loop_image
from ditop import budget
from ditop.homotopy import fold, verify_homotopy
from ditop.images import CK, DigitalImage, induced_subimage, interval_image
from ditop.maps import DigitalMap

from helpers import (categorical_subsets, mask, plane_isometry,
                     random_grid_image, searched_contractible_image,
                     theta_image, uncertified_image)


def test_single_point_has_category_one():
    assert cat(DigitalImage(((0, 0),), CK(1))) == 1


def test_intervals_have_category_one():
    for hi in range(0, 6):
        assert cat(interval_image(0, hi)) == 1


def test_the_unit_square_cycle_has_category_one():
    assert cat(cycle_image(4)) == 1


def test_the_loop_has_category_two():
    w = cat_exact(loop_image())
    assert w.size == 2
    ok, why = w.check()
    assert ok, why


def test_the_textbook_pieces_are_admissible_for_the_loop():
    loop = loop_image()
    m1, m2 = loop_cover()
    assert set(m1) | set(m2) == set(loop.points)
    for piece in (m1, m2):
        w = piece_contraction(loop, mask(loop, piece))
        assert w is not None
        ok, why = verify_homotopy(w)
        assert ok, why
        # starts at the inclusion of the piece, ends at a constant
        first, last = w.stages[0], w.stages[-1]
        assert first.values == tuple(sorted(piece))
        assert len(set(last.values)) == 1


def test_cat_witness_pieces_cover_and_contract_in_the_ambient_image():
    loop = loop_image()
    w = cat_exact(loop)
    covered = set()
    for piece in w.pieces:
        covered.update(piece.points)
        ok, why = verify_homotopy(piece.contraction)
        assert ok, why
        assert piece.contraction.stages[0].values == piece.points
        for stage in piece.contraction.stages:
            assert stage.codomain.points == loop.points
    assert covered == set(loop.points)


def test_category_is_invariant_under_plane_isometries():
    rng = random.Random(11)
    loop = loop_image()
    for _ in range(6):
        move = plane_isometry(rng)
        shifted = DigitalImage(tuple(move(p) for p in loop.points), CK(1))
        assert cat(shifted) == 2


def test_bigger_cycles_still_have_category_two():
    # rectangle boundaries are never contractible but split into two arcs
    for n in (8, 12):
        assert cat(cycle_image(n)) == 2


def test_category_refuses_disconnected_images():
    img = DigitalImage(((0,), (9,)), CK(1))
    with pytest.raises(ValueError):
        cat_exact(img)
    with pytest.raises(ValueError):
        cat_bounds(img)


def test_past_the_sweep_limit_no_automorphisms_are_sought(monkeypatch):
    # the sweep refuses the image before it asks anything, and a search
    # per pair of points would be all of the refusal's cost
    def unreachable(img):
        raise AssertionError("automorphisms sought past the sweep limit")

    monkeypatch.setattr(category, "automorphism_generators", unreachable)
    with pytest.raises(ValueError, match="limited to 14 points"):
        cat_exact(cycle_image(400))


def test_bounds_bracket_the_exact_value_on_small_images():
    cases = [interval_image(0, 4), cycle_image(4), loop_image(), cycle_image(8)]
    for img in cases:
        exact = cat(img)
        r = cat_bounds(img)
        assert r.lower <= exact
        assert r.upper is None or exact <= r.upper


def test_bounds_with_the_textbook_seed_cover_are_tight_on_the_loop():
    r = cat_bounds(loop_image())
    assert r.lower == 2
    assert r.upper == 2
    assert r.exact


def test_categorical_subsets_of_the_loop_miss_one_point():
    # a maximal nullhomotopic-inclusion subset of a cycle is an arc
    loop = loop_image()
    tops = categorical_subsets(loop)
    assert tops
    for s in tops:
        assert len(s) == 7


@pytest.mark.parametrize("name, searches", [
    ("H", 5), ("cycle:12", 5), ("cycle:14", 5), ("theta", 37)])
def test_cat_exact_searches_one_set_per_orbit(monkeypatch, name, searches):
    # a verdict holds on its set's whole orbit under the image's
    # automorphisms, so the dihedral cycles take 5 searches, not 11 to 17,
    # and theta 37, not 103
    oracles = []
    make_oracle = category.cat_oracle

    def recording_oracle(*args, **kwargs):
        oracles.append(make_oracle(*args, **kwargs))
        return oracles[-1]

    monkeypatch.setattr(category, "cat_oracle", recording_oracle)
    img = theta_image() if name == "theta" else get_image(name)
    assert cat_exact(img).size == 2
    assert len(oracles) == 1 and oracles[0].calls <= searches


@pytest.mark.parametrize("k", [1, 2])
def test_orbit_answers_leave_every_piece_and_stage_as_a_search_gives(
        monkeypatch, k):
    # witnesses come from searches of the pieces themselves, so the same
    # cover and stages come back when the oracle knows no automorphisms
    rng = random.Random(k)
    images = [random_grid_image(rng, k=k) for _ in range(25)]

    def cover(img):
        return [(p.points, p.contraction.stages)
                for p in cat_exact(img).pieces]

    with_orbits = [cover(img) for img in images]
    monkeypatch.setattr(category, "automorphism_generators", lambda img: ())
    assert [cover(img) for img in images] == with_orbits


def test_cat_exact_searches_each_piece_once(monkeypatch):
    # every query reaches piece_contraction once; a map-graph search runs
    # only on a fold core, at most once per core, and every other piece
    # slides or lifts the memoized witness of its core. Every "no" on the
    # loop has a cocycle certificate and every "yes" slides or lifts a
    # slide of its core, so no core is searched (the commit before the
    # certificates searched 1); a graph with no cocycle still searches 5
    # cores, each once
    entered = []
    searched = []
    queried = []
    oracles = []
    enter, search = category.piece_contraction, homotopy.folded_nullhomotopy
    make_oracle = category.cat_oracle

    def counting_entry(*args, **kwargs):
        entered.append(args[1])
        return enter(*args, **kwargs)

    def counting_search(f, *args, **kwargs):
        searched.append(f.domain.points)
        return search(f, *args, **kwargs)

    def recording_oracle(*args, **kwargs):
        oracle = make_oracle(*args, **kwargs)
        inner = oracle.search

        def recording_search(sub):
            queried.append(sub)
            return inner(sub)

        oracle.search = recording_search
        oracles.append(oracle)
        return oracle

    monkeypatch.setattr(category, "piece_contraction", counting_entry)
    monkeypatch.setattr(homotopy, "folded_nullhomotopy", counting_search)
    monkeypatch.setattr(category, "cat_oracle", recording_oracle)
    for base, searches in ((loop_image(), 0), (uncertified_image(), 5)):
        for seen in (entered, searched, queried, oracles):
            seen.clear()
        w = cat_exact(base)
        assert w.size == 2
        assert len(queried) == len(set(queried)) == oracles[0].calls
        assert entered == queried
        assert len(searched) == len(set(searched)) == searches
        for core in searched:
            assert mask(base, core) in queried
            assert not fold(induced_subimage(base, core)).steps
        for piece in w.pieces:
            assert piece.contraction is oracles[0].witness(
                mask(base, piece.points))


def test_bounds_slide_each_target_once_after_an_exhausted_check(monkeypatch):
    slides = []
    slide = homotopy.slide_nullhomotopy

    def counting_slide(*args, **kwargs):
        slides.append((args[0].domain.points, args[1]))
        return slide(*args, **kwargs)

    monkeypatch.setattr(homotopy, "slide_nullhomotopy", counting_slide)
    monkeypatch.setattr(category, "slide_nullhomotopy", counting_slide)
    loop = loop_image()
    with budget(3):
        r = cat_bounds(loop)
    # a cocycle settles the loop's whole-image check, with no slide and no
    # search, so the lower bound is 2; 14 slides grow the greedy pieces,
    # and the whole image is never slid: the commit before the
    # certificates ran out of budget on that check and slid 22 times
    assert len(slides) == 14
    assert all(len(piece) < len(loop.points) for piece, _ in slides)
    assert (r.lower, r.upper) == (2, 2)
    assert r.notes == ("upper from greedy growth",
                       "lower 2: the whole image is not admissible")
    assert r.witness == (
        ((0, -1), (0, 0), (0, 1), (1, -1), (1, 1), (2, -1), (2, 0)),
        ((0, -1), (0, 0), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)))
    # a check that still searches and runs out: the 8 slides of the
    # identity's fold core are tried before the search, and the greedy
    # pieces never slide the whole image
    slides.clear()
    stiff = searched_contractible_image()
    with budget(3):
        r = cat_bounds(stiff)
    core = stiff.points[:7]
    assert slides[:8] == [(core, t) for t in range(8)]
    assert all(len(piece) < len(stiff.points) for piece, _ in slides)
    assert (r.lower, r.upper) == (1, 2)
    assert r.notes[-1] == "lower stays 1: whole-image admissibility unsettled"


def test_a_sliding_core_settles_the_whole_image_within_a_tiny_budget(
        monkeypatch):
    # every slide of the c2 frame's identity tears, but its folded core, a
    # 4-cycle, slides; so no map-graph search runs and a budget of 20
    # states, which that search would exceed, still settles contractibility
    searches = []
    bfs = homotopy.MapGraph.bfs

    def counting_bfs(*args, **kwargs):
        searches.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(homotopy.MapGraph, "bfs", counting_bfs)
    frame = DigitalImage(tuple((x, y) for x in range(3) for y in range(3)
                               if (x, y) != (1, 1)), CK(2))
    with budget(20):
        r = cat_bounds(frame)
    assert (r.lower, r.upper) == (1, 1)
    assert r.notes == ("whole image admissible, cover of one",)
    assert searches == []


def test_theta_has_category_two_within_a_small_budget():
    with budget(20_000):
        w = cat_exact(theta_image())
    assert w.size == 2
    assert w.check() == (True, None)


@pytest.mark.parametrize("turns", range(4))
def test_a_ring_with_a_tail_has_category_two_in_every_orientation(turns):
    # an 8-cycle with a 5-point tail; the tail folds away
    pts = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    pts += [(x, 1) for x in range(3, 8)]
    for _ in range(turns):
        pts = [(-y, x) for x, y in pts]
    w = cat_exact(DigitalImage(tuple(sorted(pts)), CK(1)))
    assert w.size == 2
    assert w.check() == (True, None)
