"""Path and wedge spaces: counting two ways, fibration plumbing."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ditop.corpus import loop_image
from ditop.images import CK, DigitalImage, interval_image
from ditop.pathspace import (EndpointFibration, PairedFibration, WedgeSpace,
                             is_path, paths_between)

from helpers import (count_paths, endpoint_fiber_oracle, paired_fiber_oracle,
                     paths_between_oracle, random_grid_image,
                     wedge_adjacent_oracle, wedge_end_point,
                     wedge_is_wedge_oracle)


def test_is_path_checks_consecutive_steps():
    seg = interval_image(0, 3)  # point indices are the values here
    assert is_path(seg, [0, 1, 1, 2])
    assert not is_path(seg, [0, 2])
    assert not is_path(seg, [])
    assert not is_path(seg, [9]) and not is_path(seg, [-1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4))
def test_path_listing_agrees_with_the_counting_recurrence(seed, length):
    rng = random.Random(seed)
    img = random_grid_image(rng, max_points=6, connected=False)
    start = rng.choice(img.points)
    end = rng.choice(img.points)
    si, ei = img.index(start), img.index(end)
    listed = list(paths_between(img, si, ei, length))
    assert len(listed) == count_paths(img, start, end, length)
    for p in listed:
        assert p[0] == si and p[-1] == ei
        assert is_path(img, p)
    assert len(set(listed)) == len(listed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(-1, 4))
def test_walks_match_the_recursive_walker_in_order(seed, length):
    rng = random.Random(seed)
    img = random_grid_image(rng, max_points=6, k=rng.randint(1, 2),
                            connected=False)
    start, end = rng.choice(img.points), rng.choice(img.points)
    assert list(paths_between(img, img.index(start), img.index(end), length)) \
        == [tuple(map(img.index, walk))
            for walk in paths_between_oracle(img, start, end, length)]


# enough wedges to pass the first start's product in most draws, few
# enough to keep every example fast
_PREFIX = 400


def _prefix(items, k=_PREFIX):
    return list(itertools.islice(items, k))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(0, 4),
       st.booleans(), st.integers(0, _PREFIX))
def test_fibers_match_the_recursive_walker_in_order(seed, n, m, strong, k):
    rng = random.Random(seed)
    img = random_grid_image(rng, max_points=6, k=rng.randint(1, 2),
                            connected=False)
    fib = EndpointFibration(img, n, m, strong=strong)
    u = rng.randrange(len(fib.product.points))
    want = _prefix(endpoint_fiber_oracle(fib, u))
    assert _prefix(fib.fiber(u)) == want
    assert _prefix(fib.fiber(u), k) == want[:k]
    assert fib.fiber_nonempty(u) == bool(want)
    right = EndpointFibration(img, rng.randint(1, 2), rng.randint(0, 2),
                              strong=strong)
    pair = PairedFibration(fib, right)
    v = rng.randrange(len(pair.product.points))
    want = _prefix(paired_fiber_oracle(pair, v))
    assert _prefix(pair.fiber(v)) == want
    assert _prefix(pair.fiber(v), k) == want[:k]
    assert pair.fiber_nonempty(v) == bool(want)


def test_no_wedge_joins_two_components():
    # each endpoint is within m of a start in its own component, but no
    # start reaches both
    img = DigitalImage(((0,), (1,), (5,)), CK(1))
    fib = EndpointFibration(img, 2, 2)
    at = fib.product.index
    assert not fib.fiber_nonempty(at((0, 5)))
    assert list(fib.fiber(at((0, 5)))) == []
    assert fib.is_surjective() == (False, at((0, 5)))
    assert fib.fiber_nonempty(at((0, 1)))
    # no arm length helps: the tuple's points lie in two components
    assert not fib.reachable(at((0, 5))) and fib.reachable(at((5, 5)))
    pair = PairedFibration(fib, EndpointFibration(img, 1, 0))
    at = pair.product.index
    assert not pair.reachable(at((0, 5, 1))) and pair.reachable(at((0, 1, 5)))


def test_stationary_paths_exist_at_every_length():
    seg = interval_image(0, 2)
    for m in range(4):
        assert count_paths(seg, (1,), (1,), m) >= 1


def test_wedge_space_basics():
    seg = interval_image(0, 2)
    ws = WedgeSpace(seg, 2, 1)
    w = ((0, 1), (0, 0))  # arms of point indices, which here are the values
    assert wedge_is_wedge_oracle(ws, w)
    # the arm ends, read as points and concatenated, are the product point
    assert wedge_end_point(ws, w) == (1, 0)
    cw = ws.constant_wedge(1)
    assert cw == ((1, 1), (1, 1)) and wedge_is_wedge_oracle(ws, cw)
    assert wedge_end_point(ws, cw) == (1, 1)
    # arms must share their start
    assert not wedge_is_wedge_oracle(ws, ((0, 1), (1, 1)))


def test_pointwise_wedge_steps_allow_one_arm_to_move():
    seg = interval_image(0, 3)
    ws = WedgeSpace(seg, 2, 1)
    a = ((0, 1), (0, 0))
    b = ((0, 0), (0, 0))
    assert ws.adjacent(a, b)


def test_strong_steps_are_a_subset_of_pointwise_steps():
    seg = interval_image(0, 2)
    soft = WedgeSpace(seg, 2, 2)
    hard = WedgeSpace(seg, 2, 2, strong=True)
    wedges = []
    for p1 in paths_between(seg, 0, 1, 2):
        for p2 in paths_between(seg, 0, 2, 2):
            wedges.append((p1, p2))
    for u in wedges:
        for v in wedges:
            if u == v:
                continue
            if hard.adjacent(u, v):
                assert soft.adjacent(u, v)


def test_fiber_wedges_end_where_they_should():
    seg = interval_image(0, 2)
    fib = EndpointFibration(seg, 2, 2)
    target = fib.product.index((0, 2))
    seen = 0
    for w in fib.fiber(target):
        seen += 1
        assert wedge_end_point(fib, w) == (0, 2)
        assert wedge_is_wedge_oracle(fib, w)
    assert seen == fib_count(seg, [(0,), (2,)], 2)


def fib_count(img, parts, m):
    total = 0
    for s in img.points:
        prod = 1
        for t in parts:
            prod *= count_paths(img, s, t, m)
        total += prod
    return total


def test_surjectivity_depends_on_the_arm_length():
    # arms share a start, so reaching (p, q) needs a point within m of both;
    # the loop has diameter 4, so m = 1 strands the antipodal pairs
    loop = loop_image()
    short = EndpointFibration(loop, 2, 1)
    ok, missing = short.is_surjective()
    assert not ok
    assert missing is not None
    full = EndpointFibration(loop, 2, 2)
    ok, missing = full.is_surjective()
    assert ok
    assert missing is None


def test_fibration_split_matches_the_product_layout():
    seg = interval_image(0, 1)
    loop = loop_image()
    pair = PairedFibration(EndpointFibration(seg, 2, 1),
                           EndpointFibration(loop, 1, 2))
    u = len(pair.product.points) - 1
    left, right = pair.split(u)
    assert pair.product.points[u] \
        == pair.left.product.points[left] + pair.right.product.points[right]
    assert pair.left.split(left) == (1, 1)
    ok, missing = pair.is_surjective()
    assert ok, missing


def test_paired_wedges_pair_the_component_rules():
    seg = interval_image(0, 1)
    lw = WedgeSpace(seg, 1, 1)
    rw = WedgeSpace(seg, 1, 1)
    pw = PairedFibration(EndpointFibration(seg, 1, 1),
                         EndpointFibration(seg, 1, 1))
    a = (((0, 1),), ((0, 0),))
    assert wedge_is_wedge_oracle(pw, a)
    assert wedge_end_point(pw, a) == (1, 0)
    b = (((0, 0),), ((0, 1),))
    # both strictly moving at once is not a paired step
    assert not wedge_adjacent_oracle(pw, a, b)
    c = (((0, 1),), ((0, 1),))
    assert wedge_adjacent_oracle(pw, a, c)
    assert lw.adjacent(a[0], c[0]) and rw.adjacent(a[1], c[1])


def test_occupancy_tables_read_the_base_index_directly(monkeypatch, capsys):
    # arms hold base point indices, so the tables index their masks by
    # them and make no `DigitalImage.index` call
    from ditop.cli import main
    from ditop.pathspace import Occupancy

    depth, entered, calls = [0], [], []
    index = DigitalImage.index

    def counted_index(self, p):
        if depth[0]:
            calls.append(p)
        return index(self, p)

    def counted(method):
        def run(self, *args):
            entered.append(method.__name__)
            depth[0] += 1
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
        return run

    monkeypatch.setattr(DigitalImage, "index", counted_index)
    for name in ("__init__", "_near_arm"):
        monkeypatch.setattr(Occupancy, name, counted(getattr(Occupancy, name)))
    command = "genus corpus:cycle:4 -n 1 --m 5 --mode strong --json"
    assert main(command.split()) == 0
    capsys.readouterr()
    assert "__init__" in entered and "_near_arm" in entered
    assert calls == []
