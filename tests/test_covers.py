"""Cover search: exact minimum against brute force, bounds, the oracle cache."""

from __future__ import annotations

import itertools
import random

import pytest

from ditop.covers import (AdmissibilityOracle, BoundResult, CoverImpossible,
                          maximal_admissible_sets, minimal_cover_bounds,
                          minimal_cover_exact)
from ditop.images import induced_subimage, interval_image

from helpers import random_grid_image


def _brute_minimum_cover(points, admissible):
    """Smallest number of admissible subsets covering the points, by
    exhaustive search over families of admissible sets."""
    sets = []
    for r in range(1, len(points) + 1):
        for combo in itertools.combinations(points, r):
            if admissible(combo):
                sets.append(frozenset(combo))
    for size in range(1, len(sets) + 1):
        for family in itertools.combinations(sets, size):
            union = frozenset().union(*family)
            if union == frozenset(points):
                return size
    raise AssertionError("no cover at all")


def _diameter_at_most(img, limit):
    def ok(subset):
        sub = induced_subimage(img, subset)
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
            covered.update(s)
        assert covered == set(seg.points)
        assert len(sets) == _brute_minimum_cover(seg.points, pred)


def test_exact_cover_matches_brute_force_on_random_grids():
    rng = random.Random(2026)
    for _ in range(12):
        img = random_grid_image(rng, max_points=7, connected=True)
        pred = _diameter_at_most(img, 1)
        oracle = AdmissibilityOracle(img, pred)
        sets = minimal_cover_exact(img, oracle)
        assert len(sets) == _brute_minimum_cover(img.points, pred)


def test_singleton_never_admissible_raises_cover_impossible():
    seg = interval_image(0, 2)
    oracle = AdmissibilityOracle(seg, lambda s: (1,) not in s)
    with pytest.raises(CoverImpossible):
        minimal_cover_exact(seg, oracle)


def test_bounds_never_contradict_the_exact_answer():
    for n, limit in ((4, 1), (5, 1), (6, 2)):
        seg = interval_image(0, n - 1)
        pred = _diameter_at_most(seg, limit)
        exact = len(minimal_cover_exact(seg, AdmissibilityOracle(seg, pred)))
        r = minimal_cover_bounds(seg, AdmissibilityOracle(seg, pred),
                                 whole_admissible=pred(seg.points))
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
        return len(subset) <= 3

    oracle = AdmissibilityOracle(seg, pred)
    big = ((0,), (1,), (2,))
    assert oracle(big)
    before = len(calls)
    assert oracle(((0,), (1,)))
    assert len(calls) == before + 1
    assert oracle(big)
    assert len(calls) == before + 1


def test_oracle_searches_each_subset_once_and_keeps_the_witness():
    seg = interval_image(0, 3)
    calls = []

    def search(subset):
        calls.append(subset)
        return ("witness", subset) if len(subset) <= 2 else None

    oracle = AdmissibilityOracle(seg, search)
    pair = ((1,), (2,))
    assert oracle(pair)
    assert oracle([(2,), (1,)])
    assert oracle.witness(pair) == ("witness", pair)
    assert calls == [pair]
    assert not oracle(((0,), (1,), (2,)))
    assert oracle.witness(((0,), (1,), (2,))) is None
    assert len(calls) == 2
    # a subset of an admissible set is searched on its own, once
    assert oracle(((1,),))
    assert len(calls) == 3
    assert oracle.witness(((1,),)) == ("witness", ((1,),))
    assert oracle.witness(((1,),)) == ("witness", ((1,),))
    assert calls[2:] == [((1,),)]
    assert oracle.calls == len(calls) == 3


def test_exact_cover_is_the_first_minimum_family_in_combination_order():
    rng = random.Random(7)
    for _ in range(40):
        img = random_grid_image(rng, max_points=8, connected=True)
        pred = _diameter_at_most(img, rng.choice((1, 2)))
        sets = maximal_admissible_sets(img, AdmissibilityOracle(img, pred))
        first = next(family for k in range(1, len(sets) + 1)
                     for family in itertools.combinations(sets, k)
                     if set().union(*family) == set(img.points))
        assert minimal_cover_exact(img, AdmissibilityOracle(img, pred)) == first


def test_maximal_admissible_sets_are_maximal_and_admissible():
    seg = interval_image(0, 3)
    pred = _diameter_at_most(seg, 1)
    tops = maximal_admissible_sets(seg, AdmissibilityOracle(seg, pred))
    assert tops
    for s in tops:
        assert pred(s)
        extras = [p for p in seg.points if p not in s]
        for p in extras:
            assert not pred(tuple(sorted(s + (p,))))
