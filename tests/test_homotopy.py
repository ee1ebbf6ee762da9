"""Homotopy: witness verification, the search, contractibility."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ditop.homotopy as homotopy
from ditop.category import CatPiece, CatWitness, cat_oracle
from ditop.corpus import cycle_image, loop_image, loop_rotation_table
from ditop.homotopy import (BudgetExhausted, HomotopyWitness, MapGraph,
                            are_homotopic, contraction, fold,
                            folded_nullhomotopy, is_contractible,
                            nullhomotopy, pull_back, shortest_nullhomotopy,
                            slide_nullhomotopy, verify_homotopy)
from ditop.images import DigitalImage, CK, induced_subimage, interval_image
from ditop.maps import DigitalMap, continuity_violation

from helpers import (all_states, are_homotopic_oracle,
                     are_homotopy_equivalent, continuous_maps,
                     is_nullhomotopic, left_translation, mask,
                     point_walk_slide_nullhomotopy, random_explicit_image,
                     random_grid_image, restrict_witness,
                     shortest_nullhomotopy_oracle, slide_first_cat_oracle,
                     theta_image, unfolded_nullhomotopy,
                     unsplit_folded_nullhomotopy)


def _const(img, t):
    return DigitalMap.from_points(img, img, (t,) * len(img.points))


def test_verify_homotopy_accepts_a_hand_built_slide():
    seg = interval_image(0, 2)
    stages = (
        DigitalMap.from_points(seg, seg, ((0,), (1,), (2,))),
        DigitalMap.from_points(seg, seg, ((0,), (1,), (1,))),
        DigitalMap.from_points(seg, seg, ((0,), (0,), (1,))),
        DigitalMap.from_points(seg, seg, ((0,), (0,), (0,))),
    )
    w = HomotopyWitness(stages)
    ok, why = verify_homotopy(w)
    assert ok, why


def test_verify_homotopy_rejects_a_tear_between_stages():
    seg = interval_image(0, 2)
    stages = (
        DigitalMap.from_points(seg, seg, ((0,), (1,), (2,))),
        DigitalMap.from_points(seg, seg, ((2,), (1,), (2,))),
    )
    ok, why = verify_homotopy(HomotopyWitness(stages))
    assert not ok
    assert "(0,)" in why


def test_verify_homotopy_rejects_a_discontinuous_stage():
    seg = interval_image(0, 2)
    stages = (
        DigitalMap.from_points(seg, seg, ((0,), (1,), (2,))),
        DigitalMap.from_points(seg, seg, ((0,), (1,), (1,))),
        DigitalMap.from_points(seg, seg, ((0,), (2,), (1,))),
    )
    ok, why = verify_homotopy(HomotopyWitness(stages))
    assert not ok


def test_verify_homotopy_checks_the_announced_endpoints():
    seg = interval_image(0, 1)
    ident = DigitalMap.identity(seg)
    w = HomotopyWitness((ident,))
    ok, _ = verify_homotopy(w, f=ident, g=ident)
    assert ok
    other = _const(seg, (0,))
    ok, why = verify_homotopy(w, f=ident, g=other)
    assert not ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_are_homotopic_is_reflexive_and_symmetric(seed):
    rng = random.Random(seed)
    seg = interval_image(0, 2)
    pool = list(continuous_maps(seg, seg))
    f = rng.choice(pool)
    g = rng.choice(pool)
    assert are_homotopic(f, f) is not None
    fg = are_homotopic(f, g)
    gf = are_homotopic(g, f)
    assert (fg is None) == (gf is None)
    if fg is not None:
        ok, why = verify_homotopy(fg, f=f, g=g)
        assert ok, why


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["c1", "c2", "explicit"]))
def test_map_graph_states_match_brute_force(seed, kind):
    rng = random.Random(seed)

    def image():
        if kind == "explicit":
            return random_explicit_image(rng, max_points=5)
        return random_grid_image(rng, max_points=5, k=int(kind[1]),
                                 connected=False)

    dom, cod = image(), image()
    graph = MapGraph(dom, cod)

    def brute(candidates):
        # itertools.product over sorted candidates is lexicographic
        return [vals for vals in itertools.product(*candidates)
                if continuity_violation(DigitalMap.from_points(
                    dom, cod, tuple(cod.points[i] for i in vals))) is None]

    every = brute([range(len(cod.points))] * len(dom.points))
    assert list(all_states(graph)) == every
    closed = [sorted({i, *nbrs}) for i, nbrs in enumerate(cod.neighbor_index)]
    for s in rng.sample(every, min(4, len(every))):
        assert list(graph.neighbor_states(s)) == brute([closed[v] for v in s])


def test_every_self_map_of_an_interval_is_nullhomotopic():
    seg = interval_image(0, 2)
    for f in continuous_maps(seg, seg):
        assert is_nullhomotopic(f)


def test_identity_component_of_the_loop_is_the_eight_rotations():
    loop = loop_image()
    table = loop_rotation_table()
    ident = DigitalMap.identity(loop)
    rotations = {left_translation(table, g).values for g in loop.points}
    assert len(rotations) == 8
    for f in continuous_maps(loop, loop):
        w = are_homotopic(ident, f)
        if f.values in rotations:
            assert w is not None
            ok, why = verify_homotopy(w, f=ident, g=f)
            assert ok, why
        else:
            assert w is None


def test_the_loop_is_not_contractible_but_the_interval_is():
    assert not is_contractible(loop_image())
    assert is_contractible(interval_image(0, 9))
    assert is_contractible(DigitalImage(((0, 0),), CK(1)))


def test_contraction_witness_verifies_end_to_end():
    seg = interval_image(0, 5)
    w = contraction(seg)
    assert w is not None
    ok, why = verify_homotopy(w, f=DigitalMap.identity(seg))
    assert ok, why
    last = w.stages[-1]
    assert len(set(last.values)) == 1


def test_the_unit_square_cycle_is_contractible():
    # a 4-cycle in the plane contracts: opposite corners meet diagonally
    sq = cycle_image(4)
    w = contraction(sq)
    assert w is not None
    ok, why = verify_homotopy(w, f=DigitalMap.identity(sq))
    assert ok, why


def test_slide_nullhomotopy_works_on_trees_but_not_the_loop():
    seg = interval_image(0, 4)
    w = slide_nullhomotopy(DigitalMap.identity(seg), (0,))
    assert w is not None
    ok, why = verify_homotopy(w)
    assert ok, why
    loop = loop_image()
    for t in loop.points:
        assert slide_nullhomotopy(DigitalMap.identity(loop), t) is None


def test_nullhomotopy_respects_requested_targets():
    seg = interval_image(0, 3)
    ident = DigitalMap.identity(seg)
    w = shortest_nullhomotopy(ident, {seg.index((2,))})
    assert w is not None
    assert verify_homotopy(w, ident) == (True, None)
    assert set(w.stages[-1].values) == {(2,)}
    assert w.steps == 2


def test_budget_exhaustion_is_loud_not_wrong():
    loop = loop_image()
    with pytest.raises(BudgetExhausted):
        nullhomotopy(DigitalMap.identity(loop), node_budget=3)


def test_restrict_witness_projects_onto_a_subset():
    seg = interval_image(0, 3)
    w = contraction(seg)
    sub = restrict_witness(w, [(0,), (1,)])
    assert sub.stages[0].domain.points == ((0,), (1,))
    ok, why = verify_homotopy(sub)
    assert ok, why


def test_homotopy_equivalence_spot_checks():
    assert are_homotopy_equivalent(interval_image(0, 4),
                                   DigitalImage(((7,),), CK(1)))
    assert are_homotopy_equivalent(loop_image(), cycle_image(8))
    assert not are_homotopy_equivalent(loop_image(), interval_image(0, 7))


# ---- folding dominated points ----

def _box(k: int, h: int = 3) -> DigitalImage:
    return DigitalImage(tuple((x, y) for x in range(3) for y in range(h)),
                        CK(k))


def _frame(k: int) -> DigitalImage:
    return DigitalImage(tuple(p for p in _box(k).points if p != (1, 1)),
                        CK(k))


def test_fold_removes_the_lowest_dominated_point_into_its_lowest_dominator():
    seg = fold(interval_image(0, 3))
    pts = seg.image.points
    assert [(pts[p], pts[q]) for p, q in seg.steps] == [
        ((0,), (1,)), ((1,), (2,)), ((2,), (3,))]
    assert seg.core.points == ((3,),)
    # under c2 the frame's corners fold onto the edge midpoints, whose
    # 4-cycle has no dominated point
    frame = fold(_frame(2))
    assert [frame.image.points[p] for p, _ in frame.steps] == [
        (0, 0), (0, 2), (2, 0), (2, 2)]
    assert frame.core.points == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert fold(frame.core).steps == ()
    assert fold(_frame(1)).steps == ()


@pytest.mark.parametrize("img", [_frame(1), _frame(2), _box(2)],
                         ids=["frame-c1", "frame-c2", "box-c2"])
def test_folded_verdicts_match_the_unfolded_route_on_every_subset(img):
    oracle = cat_oracle(img)
    for size in range(1, len(img.points) + 1):
        for sub in itertools.combinations(img.points, size):
            incl = DigitalMap.inclusion(induced_subimage(img, sub), img)
            want = unfolded_nullhomotopy(incl) is not None
            for w in (folded_nullhomotopy(incl), nullhomotopy(incl),
                      oracle.witness(mask(img, sub))):
                assert (w is not None) == want, sub
                if w is not None:
                    ok, why = verify_homotopy(w, incl)
                    assert ok, (sub, why)
                    assert w.end.is_constant(), sub


_SPLIT_IMAGES = {"box3x3-c1": _box(1), "box3x3-c2": _box(2),
                 "box3x4-c1": _box(1, 4), "box3x4-c2": _box(2, 4),
                 "cycle8": cycle_image(8), "theta": theta_image()}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SPLIT_IMAGES)), st.data())
def test_split_search_agrees_with_the_product_search(name, data):
    img = _SPLIT_IMAGES[name]
    sub = data.draw(st.sets(st.sampled_from(img.points), min_size=1))
    incl = DigitalMap.inclusion(induced_subimage(img, sub), img)
    # the product graph grows as a power of the core's component count,
    # and c1 boxes do not fold, so the oracle runs within a budget
    try:
        want = unsplit_folded_nullhomotopy(incl, node_budget=20_000)
    except BudgetExhausted:
        reject()
    # the split search runs on the domain's core, where `nullhomotopy`
    # calls it
    core = fold(incl.domain).core
    on_core = DigitalMap.inclusion(core, img)
    for f, w in ((on_core, folded_nullhomotopy(on_core, node_budget=20_000)),
                 (incl, nullhomotopy(incl, node_budget=20_000))):
        assert (w is None) == (want is None)
        if w is not None:
            ok, why = verify_homotopy(w, f)
            assert ok, why
            assert w.end.is_constant()


def test_split_search_joins_constants_only_within_a_codomain_component():
    # the domain's components are {0, 1} and {5}; the codomain is an
    # 8-cycle beside a separate segment
    dom = DigitalImage(((0,), (1,), (5,)), CK(1))
    cod = DigitalImage(cycle_image(8).points + ((10, 0), (11, 0)), CK(1))
    apart = DigitalMap.from_points(dom, cod, ((0, 0), (0, 1), (10, 0)))
    assert folded_nullhomotopy(apart) is None
    assert nullhomotopy(apart) is None
    together = DigitalMap.from_points(dom, cod, ((0, 0), (0, 1), (2, 2)))
    w = folded_nullhomotopy(together)
    ok, why = verify_homotopy(w, together)
    assert ok, why
    assert w.end.is_constant()
    # {0, 1} reaches (0, 0) in one step while (2, 2) walks four steps
    # around the cycle to it
    assert w.steps == 4


def test_a_component_without_a_constant_ends_the_split_search(monkeypatch):
    # theta's left 8-cycle plus the isolated points (4, 0) and (4, 2): the
    # cycle's class holds 8 maps and no constant, so the search stops
    # there, where the product graph has 8 * 13 * 13 states to exhaust
    expanded = []
    expand = MapGraph.neighbor_states

    def counting(self, state):
        expanded.append(state)
        return expand(self, state)

    monkeypatch.setattr(MapGraph, "neighbor_states", counting)
    theta = theta_image()
    piece = [p for p in theta.points if p[0] <= 2] + [(4, 0), (4, 2)]
    incl = DigitalMap.inclusion(induced_subimage(theta, piece), theta)
    assert folded_nullhomotopy(incl) is None
    assert len(expanded) == 8
    expanded.clear()
    assert unsplit_folded_nullhomotopy(incl) is None
    assert len(expanded) == 8 * 13 * 13


def test_a_tampered_fold_stage_is_rejected_by_stage():
    frame = _frame(1)
    arc = ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
    rest = tuple(p for p in frame.points if p not in arc) + ((0, 0),)
    incl = DigitalMap.inclusion(induced_subimage(frame, arc), frame)
    folded = fold(incl.domain)
    core = nullhomotopy(DigitalMap.inclusion(folded.core, frame))
    w = pull_back(incl, folded, core.stages)
    steps = len(folded.steps)
    assert steps == 4 and w.steps >= steps
    other = cat_oracle(frame).witness(mask(frame, rest))
    dist = frame.distance_matrix
    for k in range(1, steps + 1):
        before, stage = w.stages[k - 1], w.stages[k]
        far = next(v for v in frame.points
                   if dist[frame.index(v)][frame.index(before.values[0])] > 1)
        bad = DigitalMap.from_points(stage.domain, frame,
                                     (far,) + stage.values[1:])
        tampered = HomotopyWitness(w.stages[:k] + (bad,) + w.stages[k + 1:])
        named = rf"\bstage {k}\b|\bstages {k - 1} and {k}\b"
        ok, why = verify_homotopy(tampered, incl)
        assert not ok and re.search(named, why), (k, why)
        ok, why = CatWitness(frame, (CatPiece(arc, tampered),
                                     CatPiece(rest, other))).check()
        assert not ok and why.startswith("piece 0: "), why
        assert re.search(named, why), (k, why)


def _same_witnesses(img, subsets):
    """cat_oracle, the slide-first oracle and memo-free nullhomotopy give
    equal witnesses, stage by stage, or all give None."""
    oracle, reference = cat_oracle(img), slide_first_cat_oracle(img)
    for sub in subsets:
        incl = DigitalMap.inclusion(induced_subimage(img, sub), img)
        want = reference.witness(mask(img, sub))
        for w in (oracle.witness(mask(img, sub)), nullhomotopy(incl)):
            assert (w is None) == (want is None), sub
            assert w is None or w.stages == want.stages, sub


@pytest.mark.parametrize("img", [_frame(1), _frame(2), _box(2)],
                         ids=["frame-c1", "frame-c2", "box-c2"])
def test_core_first_witnesses_match_the_slide_first_oracle(img):
    _same_witnesses(img, (sub for size in range(1, len(img.points) + 1)
                          for sub in itertools.combinations(img.points, size)))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(theta_image().points), min_size=1))
def test_core_first_witnesses_match_the_slide_first_oracle_on_theta(sub):
    _same_witnesses(theta_image(), [tuple(sorted(sub))])


def test_a_piece_whose_core_has_no_witness_is_never_slid(monkeypatch):
    # theta's left 8-cycle plus (3, 0), which folds onto (2, 0); the
    # cycle's class holds no constant, so only the core is ever slid
    slid = []
    slide = homotopy.slide_nullhomotopy

    def counting(f, t):
        slid.append(f.domain.points)
        return slide(f, t)

    monkeypatch.setattr(homotopy, "slide_nullhomotopy", counting)
    theta = theta_image()
    cycle = tuple(p for p in theta.points if p[0] <= 2)
    piece = tuple(sorted(cycle + ((3, 0),)))
    incl = DigitalMap.inclusion(induced_subimage(theta, piece), theta)
    assert fold(incl.domain).core.points == cycle
    assert nullhomotopy(incl) is None
    assert cat_oracle(theta).witness(mask(theta, piece)) is None
    assert slid and set(slid) == {cycle}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_SPLIT_IMAGES)), st.data())
def test_a_slide_restricts_to_a_slide_of_the_core(name, data):
    img = _SPLIT_IMAGES[name]
    sub = data.draw(st.sets(st.sampled_from(img.points), min_size=1))
    t = data.draw(st.sampled_from(img.points))
    incl = DigitalMap.inclusion(induced_subimage(img, sub), img)
    if slide_nullhomotopy(incl, t) is not None:
        core = fold(incl.domain).core
        assert slide_nullhomotopy(DigitalMap.inclusion(core, img), t) is not None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from(["c1", "c2", "disconnected", "loop"]))
def test_index_slides_match_the_point_walk(seed, kind):
    # every target of a continuous map: the same stages, or None on both
    rng = random.Random(seed)
    k = 2 if kind == "c2" else rng.choice((1, 2))
    apart = kind == "disconnected"
    dom = random_grid_image(rng, max_points=4, k=k, connected=not apart)
    cod = (loop_image() if kind == "loop"
           else random_grid_image(rng, k=k, connected=not apart))
    f = rng.choice(list(continuous_maps(dom, cod)))
    for t in cod.points:
        w = slide_nullhomotopy(f, t)
        oracle = point_walk_slide_nullhomotopy(f, t)
        assert (w is None) == (oracle is None), t
        if w is not None:
            assert w.stages == oracle.stages and w.label == oracle.label


# ---- the goal test one step ahead ----

def _stages(w):
    return None if w is None else tuple(st.value_indices for st in w.stages)


def _searches_match_the_arrival_test(img):
    # the identity to every constant, to the constant it ends at (or the
    # first point when none), and to that constant map as a single goal;
    # `contraction` returns a slide or the search to every constant
    ident, every = DigitalMap.identity(img), range(len(img.points))
    want = _stages(shortest_nullhomotopy_oracle(ident, every))
    w = shortest_nullhomotopy(ident, every)
    assert _stages(w) == want
    c = contraction(img)
    if c is None or c.label != "slide":
        assert _stages(c) == want
    rest = w.end.value_indices[0] if w is not None else 0
    assert _stages(shortest_nullhomotopy(ident, {rest})) \
        == _stages(shortest_nullhomotopy_oracle(ident, {rest}))
    const = DigitalMap(img, img, (rest,) * len(img.points))
    assert _stages(are_homotopic(ident, const)) \
        == _stages(are_homotopic_oracle(ident, const))


@pytest.mark.parametrize("k", [1, 2])
def test_one_step_ahead_matches_the_arrival_test_on_every_box_subset(k):
    box = _box(k)
    for size in range(1, len(box.points) + 1):
        for sub in itertools.combinations(box.points, size):
            img = induced_subimage(box, sub)
            if img.is_connected:
                _searches_match_the_arrival_test(img)


def test_one_step_ahead_matches_the_arrival_test_where_no_slide_holds():
    # the 9-point c2 subsets of the 3x4 box whose identity is contractible
    # but does not slide, so `contraction` runs its shortest search
    box = _box(2, 4)
    searched = []
    for sub in itertools.combinations(box.points, 9):
        img = induced_subimage(box, sub)
        if img.is_connected:
            w = nullhomotopy(DigitalMap.identity(img))
            if w is not None and w.label != "slide":
                searched.append(img)
    assert len(searched) == 6
    for img in searched:
        _searches_match_the_arrival_test(img)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["c1", "c2", "loop"]))
def test_one_step_ahead_matches_the_arrival_test_on_map_pairs(seed, kind):
    rng = random.Random(seed)
    k = 2 if kind == "c2" else 1
    dom = random_grid_image(rng, max_points=4, k=k,
                            connected=rng.random() < 0.5)
    cod = (loop_image() if kind == "loop"
           else random_grid_image(rng, k=k, connected=rng.random() < 0.5))
    pool = list(continuous_maps(dom, cod))
    f, g = rng.choice(pool), rng.choice(pool)
    assert _stages(are_homotopic(f, g)) == _stages(are_homotopic_oracle(f, g))
    allowed = set(rng.sample(range(len(cod.points)),
                             rng.randint(1, len(cod.points))))
    assert _stages(shortest_nullhomotopy(f, allowed)) \
        == _stages(shortest_nullhomotopy_oracle(f, allowed))


def test_the_frame_contraction_expands_two_states(monkeypatch):
    # the c2 frame contracts in 3 steps; the first state of level 2 to
    # arrive has a constant next to it, so only the start and one state
    # of level 1 are expanded (a goal test on arrival expanded the start
    # and all 83 states of level 1, yielding 51,478 states)
    calls, yielded = [], []
    expand = MapGraph.neighbor_states

    def counting(self, state):
        calls.append(state)
        for nxt in expand(self, state):
            yielded.append(nxt)
            yield nxt

    monkeypatch.setattr(MapGraph, "neighbor_states", counting)
    assert contraction(_frame(2)).steps == 3
    assert (len(calls), len(yielded)) == (2, 84)
