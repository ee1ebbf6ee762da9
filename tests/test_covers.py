"""Cover search: exact minimum against brute force, bounds, the oracle
cache, and the maximal-set sweep against a walk of the power set."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.covers as covers
from ditop.category import cat_exact, cat_oracle
from ditop.cli import main
from ditop.covers import (AdmissibilityOracle, BoundResult, CoverImpossible,
                          _hitting_combinations, maximal_admissible_sets,
                          minimal_cover_bounds, minimal_cover_exact)
from ditop.images import CK, DigitalImage, induced_subimage, interval_image

from helpers import (mask, mask_points, maximal_admissible_sets_oracle,
                     random_grid_image)


def _brute_minimum_cover(img, admissible):
    """Smallest number of admissible subsets covering the image's points,
    by exhaustive search over families of admissible sets."""
    points = img.points
    sets = []
    for r in range(1, len(points) + 1):
        for combo in itertools.combinations(points, r):
            if admissible(mask(img, combo)):
                sets.append(frozenset(combo))
    for size in range(1, len(sets) + 1):
        for family in itertools.combinations(sets, size):
            union = frozenset().union(*family)
            if union == frozenset(points):
                return size
    raise AssertionError("no cover at all")


def _diameter_at_most(img, limit):
    def ok(m):
        sub = induced_subimage(img, mask_points(img, m))
        if not sub.is_connected:
            return False
        return sub.diameter <= limit
    return ok


def test_exact_cover_matches_brute_force_on_intervals():
    for n, limit in ((3, 1), (4, 1), (5, 2), (6, 2)):
        seg = interval_image(0, n - 1)
        pred = _diameter_at_most(seg, limit)
        oracle = AdmissibilityOracle(seg, pred)
        sets = minimal_cover_exact(seg, oracle)
        assert all(pred(s) for s in sets)
        covered = set()
        for s in sets:
            covered.update(mask_points(seg, s))
        assert covered == set(seg.points)
        assert len(sets) == _brute_minimum_cover(seg, pred)


def test_exact_cover_matches_brute_force_on_random_grids():
    rng = random.Random(2026)
    for _ in range(12):
        img = random_grid_image(rng, max_points=7, connected=True)
        pred = _diameter_at_most(img, 1)
        oracle = AdmissibilityOracle(img, pred)
        sets = minimal_cover_exact(img, oracle)
        assert len(sets) == _brute_minimum_cover(img, pred)


def test_singleton_never_admissible_raises_cover_impossible():
    seg = interval_image(0, 2)
    oracle = AdmissibilityOracle(seg,
                                 lambda s: (1,) not in mask_points(seg, s))
    with pytest.raises(CoverImpossible):
        minimal_cover_exact(seg, oracle)


def test_bounds_never_contradict_the_exact_answer():
    for n, limit in ((4, 1), (5, 1), (6, 2)):
        seg = interval_image(0, n - 1)
        pred = _diameter_at_most(seg, limit)
        exact = len(minimal_cover_exact(seg, AdmissibilityOracle(seg, pred)))
        r = minimal_cover_bounds(seg, AdmissibilityOracle(seg, pred),
                                 whole_admissible=pred(mask(seg, seg.points)))
        assert r.lower <= exact <= r.upper


def test_bound_result_guards_its_own_sanity():
    with pytest.raises(ValueError):
        BoundResult(3, 2)
    r = BoundResult(2, 2)
    assert r.exact and r.value == 2
    loose = BoundResult(1, 3)
    assert not loose.exact
    with pytest.raises(ValueError):
        loose.value


def test_oracle_caches_and_uses_hereditary_shortcuts():
    seg = interval_image(0, 3)
    calls = []

    def pred(subset):
        calls.append(subset)
        return bin(subset).count("1") <= 3

    oracle = AdmissibilityOracle(seg, pred)
    big = mask(seg, ((0,), (1,), (2,)))
    assert oracle(big)
    before = len(calls)
    assert oracle(mask(seg, ((0,), (1,))))
    assert len(calls) == before + 1
    assert oracle(big)
    assert len(calls) == before + 1


def test_oracle_searches_each_subset_once_and_keeps_the_witness():
    seg = interval_image(0, 3)
    calls = []

    def search(subset):
        calls.append(subset)
        return ("witness", subset) if bin(subset).count("1") <= 2 else None

    oracle = AdmissibilityOracle(seg, search)
    pair = mask(seg, ((1,), (2,)))
    assert oracle(pair)
    assert oracle(mask(seg, [(2,), (1,)]))
    assert oracle.witness(pair) == ("witness", pair)
    assert calls == [pair]
    triple = mask(seg, ((0,), (1,), (2,)))
    assert not oracle(triple)
    assert oracle.witness(triple) is None
    assert len(calls) == 2
    # a subset of an admissible set is searched on its own, once
    one = mask(seg, ((1,),))
    assert oracle(one)
    assert len(calls) == 3
    assert oracle.witness(one) == ("witness", one)
    assert oracle.witness(one) == ("witness", one)
    assert calls[2:] == [one]
    assert oracle.calls == len(calls) == 3


def test_exact_cover_is_the_first_minimum_family_in_combination_order():
    rng = random.Random(7)
    for _ in range(40):
        img = random_grid_image(rng, max_points=8, connected=True)
        pred = _diameter_at_most(img, rng.choice((1, 2)))
        sets = maximal_admissible_sets(img, AdmissibilityOracle(img, pred))
        first = next(family for k in range(1, len(sets) + 1)
                     for family in itertools.combinations(sets, k)
                     if set().union(*(mask_points(img, s) for s in family))
                     == set(img.points))
        assert minimal_cover_exact(img, AdmissibilityOracle(img, pred)) == first


def test_maximal_admissible_sets_are_maximal_and_admissible():
    seg = interval_image(0, 3)
    pred = _diameter_at_most(seg, 1)
    tops = maximal_admissible_sets(seg, AdmissibilityOracle(seg, pred))
    assert tops
    for s in tops:
        assert pred(s)
        extras = [p for p in seg.points if p not in mask_points(seg, s)]
        for p in extras:
            assert not pred(mask(seg, mask_points(seg, s) + (p,)))


# ---- the sweep asks what a walk of the power set asks ----

def _box(w: int, h: int) -> tuple:
    return tuple((x, y) for x in range(w) for y in range(h))


def _frame(side: int) -> DigitalImage:
    """The c1 boundary of the side x side box: a simple closed curve."""
    return DigitalImage(tuple(p for p in _box(side, side)
                              if {0, side - 1} & set(p)), CK(1))


def _recording(ask, asked: list):
    def recorded(sub):
        asked.append(sub)
        return ask(sub)
    return recorded


def _both_sweeps(img: DigitalImage, make_oracle) -> list:
    """Per sweep: its maximal sets, the subsets its oracle searched, in
    order, and the witnesses of the maximal sets."""
    runs = []
    for sweep in (maximal_admissible_sets, maximal_admissible_sets_oracle):
        asked: list = []
        oracle = make_oracle()
        oracle.search = _recording(oracle.search, asked)
        sets = sweep(img, oracle)
        runs.append((sets, asked, [oracle.witness(s) for s in sets]))
    return runs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=5))))
def test_hitting_combinations_are_the_combinations_meeting_every_hole(case):
    n, holes = case
    for size in range(1, n + 1):
        want = [c for c in itertools.combinations(range(n), size)
                if all(any(h >> i & 1 for i in c) for h in holes)]
        assert list(_hitting_combinations(n, size, holes)) == want


def test_an_empty_hole_admits_no_subset_and_no_hole_admits_all():
    for size in range(1, 6):
        assert list(_hitting_combinations(5, size, [0b00110, 0])) == []
        assert list(_hitting_combinations(5, size, [])) \
            == list(itertools.combinations(range(5), size))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 3), (3, 4)]), st.sampled_from([1, 2]), st.data())
def test_sweep_asks_what_the_power_set_walk_asks(box, k, data):
    points = data.draw(st.sets(st.sampled_from(_box(*box)), min_size=1))
    img = DigitalImage(tuple(sorted(points)), CK(k))
    if data.draw(st.booleans()):
        limit = data.draw(st.integers(0, 3))
        pred = _diameter_at_most(img, limit)
    else:
        # seeded per subset, so no subset's answer depends on another's
        seed = data.draw(st.integers(0, 10_000))
        p = data.draw(st.sampled_from([0.2, 0.5, 0.8]))

        def pred(sub):
            key = f"{seed}:{mask_points(img, sub)}"
            return random.Random(key).random() < p
    runs = _both_sweeps(img, lambda: AdmissibilityOracle(img, pred))
    assert runs[0] == runs[1]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([1, 2]),
       st.sets(st.sampled_from(_box(3, 3)), min_size=1))
def test_sweep_asks_the_cat_oracle_what_the_power_set_walk_asks(k, points):
    img = DigitalImage(tuple(sorted(points)), CK(k))
    runs = _both_sweeps(img, lambda: cat_oracle(img))
    assert runs[0] == runs[1]


def _sweep_questions(monkeypatch) -> list:
    """The subsets every later maximal-set sweep hands its oracle."""
    asked: list = []
    sweep = covers.maximal_admissible_sets
    monkeypatch.setattr(covers, "maximal_admissible_sets",
                        lambda base, oracle: sweep(
                            base, _recording(oracle, asked)))
    return asked


def test_genus_of_the_14_cycle_asks_about_the_whole_product_only(
        monkeypatch, capsys):
    # the whole product admits the stand-still section, so no smaller
    # subset is asked about (a walk of the power set visits 16,383)
    asked = _sweep_questions(monkeypatch)
    assert main("genus corpus:cycle:14 -n 1 --m 2".split()) == 0
    assert "genus: 1" in capsys.readouterr().out
    assert [bin(s).count("1") for s in asked] == [14]


@pytest.mark.parametrize("command", [
    "genus corpus:cycle:14 -n 1 --m 2",
    "genus corpus:cycle:4 -n 1 --m 5 --mode strong"])
def test_the_genus_sweeps_look_no_point_up(monkeypatch, capsys, command):
    # the sweep, the oracle and the section search pass index masks, and
    # the certifier compares indices: the commit before looked points up
    # 70 and 20 times, to key the oracle and restrict the product
    calls = []
    index = DigitalImage.index

    def counted(self, p):
        calls.append(p)
        return index(self, p)

    monkeypatch.setattr(DigitalImage, "index", counted)
    assert main(command.split()) == 0
    assert "genus: 1" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("side, questions", [(6, 21), (8, 29)])
def test_exact_cat_of_a_frame_past_the_limit_asks_one_arc_per_point(
        monkeypatch, side, questions):
    # the whole frame is not contractible and every arc missing one point
    # is, so the sweep asks about the frame and its arcs and nothing else
    monkeypatch.setattr(covers, "SWEEP_LIMIT", 28)
    asked = _sweep_questions(monkeypatch)
    frame = _frame(side)
    assert cat_exact(frame).size == 2
    assert len(asked) == questions == len(frame.points) + 1
