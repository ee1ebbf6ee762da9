"""The wedge step relation decided arm by arm, against the tick-by-tick
relation it replaced.

`find_section` links piece points through occupancy masks built from
the base's closed neighbourhoods; `verify_section` works column by
column, giving each distinct arm an id once and deciding each distinct
ordered id pair that an arm column meets across the piece's edges once,
by `WedgeSpace.arm_step`, for plain and paired fibrations alike, and
`_certify` keeps those ids and verdicts across all the sections it
checks. Both must agree with the memo-free point relation kept in
`helpers`, on tiny pieces and on shuffled pieces of hundreds of points,
down to which failure a faulty section is refused for, and the work
they save is counted here.
"""

from __future__ import annotations

import functools
import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.complexity as complexity
import ditop.images as images
import ditop.pathspace as pathspace
from ditop.category import cat_exact
from ditop.cli import main
from ditop.complexity import (SectionWitness, constant_section, find_section,
                              product_of_sections, tc_n, tc_upper_via_group,
                              verify_section)
from ditop.groups import CayleyTable
from ditop.pathspace import (EndpointFibration, PairedFibration,
                             paths_between)

from helpers import (AdjacencyStepMasks, counted_builds, loop_bundle, mask,
                     random_grid_image, verify_section_oracle, wedge_adjacent_oracle,
                     wedge_is_wedge_oracle)

# wedges taken from each fiber, so the quadratic oracle stays quick
_FIBER_PREFIX = 40


def _fibrations(seed: int, k: int, n: int, m: int, strong: bool):
    """A random fibration over a 3x3 grid subset under c_k, and a pair of
    one-arm fibrations over two more such subsets, with shorter arms."""
    rng = random.Random(seed)
    fib = EndpointFibration(random_grid_image(rng, max_points=5, k=k),
                            n, m, strong=strong)
    left = EndpointFibration(random_grid_image(rng, max_points=4, k=k),
                             1, min(m, 2), strong=strong)
    right = EndpointFibration(random_grid_image(rng, max_points=3, k=k),
                              1, min(m, 1), strong=strong)
    return rng, fib, PairedFibration(left, right)


def _an_edge(rng: random.Random, fib):
    """The indices of two adjacent product points, or of one point twice
    if none are."""
    edges = fib.product.edge_index_pairs
    if not edges:
        u = rng.randrange(len(fib.product.points))
        return u, u
    return rng.choice(edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
       st.integers(0, 3), st.booleans())
def test_step_masks_match_the_adjacency_call_filler(seed, k, n, m, strong):
    rng, fib, pair = _fibrations(seed, k, n, m, strong)
    for f in (fib, pair):
        u, v = _an_edge(rng, f)
        earlier = list(itertools.islice(f.fiber(u), _FIBER_PREFIX))
        later = list(itertools.islice(f.fiber(v), _FIBER_PREFIX))
        got = f.occupancy(later).step_masks(earlier)
        want = AdjacencyStepMasks(f, earlier, later)
        for a in range(len(earlier)):
            assert got[a] == want[a], (u, v, earlier[a])
        if f is fib:  # a paired space has no step method of its own
            for w in earlier[:5]:
                for x in later[:5]:
                    assert f.adjacent(x, w) == wedge_adjacent_oracle(f, x, w)


def _tampered(rng: random.Random, fib, sw: SectionWitness) -> SectionWitness:
    """The section with one tick of one arm moved to a random base point
    index (or one just outside the base), one arm cut short by a tick, or
    one wedge (both sides of a pair, most often) swapped for another of
    its fiber."""
    at = rng.randrange(len(sw.piece))
    w = sw.wedges[at]
    if not rng.randrange(3):
        others = list(itertools.islice(fib.fiber(sw.piece[at]), _FIBER_PREFIX))
        wedges = sw.wedges[:at] + (rng.choice(others),) + sw.wedges[at + 1:]
        return SectionWitness(sw.piece, wedges)
    side = rng.randrange(2) if isinstance(fib, PairedFibration) else None
    space = fib if side is None else (fib.left, fib.right)[side]
    wedge = w if side is None else w[side]
    i = rng.randrange(len(wedge))
    t = rng.randrange(len(wedge[i]))
    arm = list(wedge[i])
    if rng.randrange(4):
        arm[t] = rng.randrange(-1, len(space.base.points) + 1)
    else:
        del arm[-1]
    wedge = wedge[:i] + (tuple(arm),) + wedge[i + 1:]
    if side is not None:
        wedge = (wedge, w[1]) if side == 0 else (w[0], wedge)
    wedges = sw.wedges[:at] + (wedge,) + sw.wedges[at + 1:]
    return SectionWitness(sw.piece, wedges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
       st.integers(0, 3), st.booleans())
def test_verify_section_matches_the_memo_free_checker(seed, k, n, m, strong):
    rng, fib, pair = _fibrations(seed, k, n, m, strong)
    for f in (fib, pair):
        pts = f.product.points
        piece = rng.sample(pts, rng.randint(1, min(4, len(pts))))
        sw = find_section(f, mask(f.product, piece))
        if sw is None:
            continue
        assert verify_section(f, sw) == verify_section_oracle(f, sw) \
            == (True, None)
        for w in sw.wedges:
            assert wedge_is_wedge_oracle(f, w)
        for _ in range(4):
            bad = _tampered(rng, f, sw)
            assert verify_section(f, bad) == verify_section_oracle(f, bad)


@functools.cache
def _large_sections():
    """(fibration, sections) pairs with pieces of 128 and 256 points: the
    translation sections of TC_3 of the loop, over its preferred cover,
    and the product of the stand-still section with the TC_2 sections."""
    loop, table, cover = loop_bundle()
    r = tc_n(loop, 3, table, cover=cover)
    m = len(r.witness[0].wedges[0][0]) - 1
    _, tc2, m2 = tc_upper_via_group(loop, table, 2, cover=cover)
    one = EndpointFibration(loop, 1, m2)
    pair = PairedFibration(one, EndpointFibration(loop, 2, m2))
    return ((EndpointFibration(loop, 3, m), r.witness),
            (pair, tuple(product_of_sections(pair, (constant_section(one),),
                                             tc2))))


def _off_path(rng: random.Random, fib, w):
    """w with one tick of one arm (of one side of a pair) moved to a base
    point neither at nor next to the tick before, so no longer a path."""
    side = rng.randrange(2) if isinstance(fib, PairedFibration) else None
    space = fib if side is None else (fib.left, fib.right)[side]
    wedge = list(w if side is None else w[side])
    i, t = rng.randrange(len(wedge)), rng.randint(1, space.m)
    arm = list(wedge[i])
    pts, adj = space.base.points, space.base.adjacency.adjacent
    before = pts[arm[t - 1]]
    arm[t] = rng.choice([q for q, p in enumerate(pts)
                         if p != before and not adj(p, before)])
    wedge[i] = tuple(arm)
    if side is None:
        return tuple(wedge)
    return (tuple(wedge), w[1]) if side == 0 else (w[0], tuple(wedge))


def _large_tampers(rng: random.Random, fib, sw: SectionWitness):
    """The section with two wedges swapped, one arm point moved off its
    path, one wedge swapped for another of its fiber, one point's wedge
    ending elsewhere, and one point outside the product."""
    k = len(sw.piece)
    a, b = rng.sample(range(k), 2)
    wedges = list(sw.wedges)
    wedges[a], wedges[b] = wedges[b], wedges[a]
    yield SectionWitness(sw.piece, tuple(wedges))
    at = rng.randrange(k)
    yield SectionWitness(sw.piece, sw.wedges[:at] + (
        _off_path(rng, fib, sw.wedges[at]),) + sw.wedges[at + 1:])
    others = [w for w in itertools.islice(fib.fiber(sw.piece[at]),
                                          _FIBER_PREFIX)
              if w != sw.wedges[at]]
    yield SectionWitness(sw.piece, sw.wedges[:at] + (rng.choice(others),)
                         + sw.wedges[at + 1:])
    inside, size = set(sw.piece), len(fib.product.points)
    for u in (rng.choice([u for u in range(size) if u not in inside]),
              size + 99):
        yield SectionWitness(sw.piece[:at] + (u,) + sw.piece[at + 1:],
                             sw.wedges)


@pytest.mark.parametrize("seed", range(5))
def test_verify_section_matches_the_memo_free_checker_on_large_pieces(seed):
    # piece order differs from index order here, unlike on the tiny
    # pieces above, so the first failure named is the oracle's only if
    # the checker walks points in piece order and edges in index order
    rng = random.Random(seed)
    for fib, sections in _large_sections():
        for sw in sections:
            order = rng.sample(range(len(sw.piece)), len(sw.piece))
            sw = SectionWitness(tuple(sw.piece[k] for k in order),
                                tuple(sw.wedges[k] for k in order))
            assert verify_section(fib, sw) == verify_section_oracle(fib, sw) \
                == (True, None)
            bad = list(_large_tampers(rng, fib, sw))
            got = [verify_section(fib, b) for b in bad]
            assert got == [verify_section_oracle(fib, b) for b in bad]
            # all but the other wedge of a fiber, which may still fit
            assert not any(ok for ok, _ in got[:2] + got[3:])


def _shuffled(rng: random.Random, sw: SectionWitness) -> SectionWitness:
    """The section with its piece in a random order."""
    order = rng.sample(range(len(sw.piece)), len(sw.piece))
    return SectionWitness(tuple(sw.piece[k] for k in order),
                          tuple(sw.wedges[k] for k in order))


def _with(sw: SectionWitness, changes: dict) -> SectionWitness:
    """The section with the wedges at some positions replaced."""
    return SectionWitness(sw.piece, tuple(changes.get(k, w)
                                          for k, w in enumerate(sw.wedges)))


def _jump(fib, i: int, j: int) -> tuple[bool, str]:
    pts = fib.product.points
    return False, (f"section jumps across the edge {pts[i]} ~ {pts[j]}: "
                   f"assigned wedges are not within one step")


def _least_broken_edge(fib, sw: SectionWitness, k: int, w):
    """The least edge (i, j), i < j, of the piece that the wedge w put at
    position k breaks, by the memo-free relation, or None."""
    at = dict(zip(sw.piece, sw.wedges))
    u = sw.piece[k]
    broken = [(min(u, v), max(u, v)) for v in fib.product.neighbor_index[u]
              if v in at and not wedge_adjacent_oracle(fib, w, at[v])]
    return min(broken, default=None)


def _one_arm_faults(fib, sw: SectionWitness, positions):
    """(position, arm column, wedge, least broken edge) for wedges of a
    plain fibration's section with one arm swapped for another walk
    between the same ends, one that breaks an edge of the piece, at
    most one per position and column, positions in the order given."""
    for k in positions:
        w = sw.wedges[k]
        for col, arm in enumerate(w):
            for other in paths_between(fib.base, arm[0], arm[-1], fib.m):
                bad = w[:col] + (other,) + w[col + 1:]
                edge = _least_broken_edge(fib, sw, k, bad)
                if edge is not None:
                    yield k, col, bad, edge
                    break


def test_a_late_point_fault_is_named_before_an_early_edge_fault():
    # an edge fault at the earliest point in piece order that has one
    # (away from the last point), and an off-path arm at the last point:
    # the first pass fails, so the edges are never judged
    rng = random.Random(7)
    fib, sections = _large_sections()[0]
    sw = _shuffled(rng, sections[0])
    last = len(sw.piece) - 1
    k, _, bad, edge = next(f for f in _one_arm_faults(fib, sw, range(last))
                           if sw.piece[last] not in f[3])
    edge_only = _with(sw, {k: bad})
    assert verify_section(fib, edge_only) == _jump(fib, *edge) \
        == verify_section_oracle(fib, edge_only)
    both = _with(sw, {k: bad, last: _off_path(rng, fib, sw.wedges[last])})
    pts = fib.product.points
    want = (False, f"assignment at {pts[sw.piece[last]]} is not a wedge of "
                   f"{fib.n} paths of length {fib.m}")
    assert verify_section(fib, both) == want \
        == verify_section_oracle(fib, both)


def test_the_least_of_two_edge_faults_in_different_columns_is_named():
    # the fault in the later arm column breaks the lesser edge, so a
    # checker that stopped at the first column with a fault would name
    # the other edge
    rng = random.Random(11)
    fib, sections = _large_sections()[0]
    sw = _shuffled(rng, sections[0])
    nbrs, seen = fib.product.neighbor_index, []
    for fault in _one_arm_faults(fib, sw, rng.sample(range(len(sw.piece)),
                                                     len(sw.piece))):
        k, col, _, edge = fault
        u = sw.piece[k]
        pair = next(((a, fault) for a in seen
                     if a[1] < col and edge < a[3] and a[0] != k
                     and sw.piece[a[0]] not in nbrs[u]), None)
        if pair is not None:
            break
        seen.append(fault)
    (ka, _, wa, _), (kb, _, wb, edge) = pair
    bad = _with(sw, {ka: wa, kb: wb})
    assert verify_section(fib, bad) == _jump(fib, *edge) \
        == verify_section_oracle(fib, bad)


def test_a_paired_edge_moving_both_sides_is_a_jump():
    # the left wedge at one point swapped for another over the same end,
    # a step from the stand-still wedge: across an edge that moves the
    # right side, each side stays within one step, but both move
    rng = random.Random(13)
    pair, sections = _large_sections()[1]
    sw = _shuffled(rng, sections[0])
    size, m = len(pair.right.product.points), pair.left.m
    adj = pair.left.base.neighbor_index

    def faults():
        """(position, wedge, least broken edge) where that edge keeps
        the left index, so only the right side moves across it."""
        for k in rng.sample(range(len(sw.piece)), len(sw.piece)):
            (left,), right = sw.wedges[k]
            ul = left[-1]
            for q in adj[ul]:
                w = (((q,) + (ul,) * m,), right)
                edge = _least_broken_edge(pair, sw, k, w)
                if edge is not None and edge[0] // size == edge[1] // size:
                    yield k, w, edge

    k, w, (i, j) = next(faults())
    other = dict(zip(sw.piece, sw.wedges))[j if sw.piece[k] == i else i]
    assert wedge_adjacent_oracle(pair.left, w[0], other[0])
    assert wedge_adjacent_oracle(pair.right, w[1], other[1])
    assert w[0] != other[0] and w[1] != other[1]
    bad = _with(sw, {k: w})
    assert verify_section(pair, bad) == _jump(pair, i, j) \
        == verify_section_oracle(pair, bad)


def _counted(monkeypatch, owner, name: str, counts: dict) -> None:
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


# command -> {call: exact count}. `_certify` keeps one arm table for all
# the sections it checks, so each distinct arm is path-checked once
# (`is_path`) and each distinct ordered arm pair is decided once
# (`arm_step`) per command: on `tc corpus:H -n 4` the commit before made
# 456 path checks and 736 `arm_step` calls, one table per section (200
# and 320 at n = 3, 968 and 1,568 at n = 5). The translation reads the
# group's grid, so it makes no `CayleyTable.product` call (384 before
# at n = 4). The checker makes no `WedgeSpace.adjacent` call: the
# commit before arm ids made 4, 14 and 10,944, one per piece edge, and the
# commit before the arm-by-arm relation 29,650, 563, 16,384 and 73,728
# calls of these kinds.
WORK = {
    "genus corpus:cycle:4 -n 1 --m 5 --mode strong": {"arm_step": 4,
                                                      "is_path": 4},
    "genus corpus:cycle:14 -n 1 --m 2": {"arm_step": 14, "is_path": 14},
    "tc corpus:H -n 3": {"arm_step": 104, "is_path": 64},
    "tc corpus:H -n 4": {"arm_step": 104, "is_path": 64},
    "tc corpus:H -n 5": {"arm_step": 104, "is_path": 64},
}


def test_work_counts_on_the_sections_commands(monkeypatch, capsys):
    counts: dict[str, int] = {}
    _counted(monkeypatch, pathspace.WedgeSpace, "adjacent", counts)
    _counted(monkeypatch, pathspace.WedgeSpace, "arm_step", counts)
    _counted(monkeypatch, pathspace, "is_path", counts)
    _counted(monkeypatch, CayleyTable, "product", counts)
    for command, want in WORK.items():
        counts.clear()
        assert main(command.split() + ["--json"]) == 0
        capsys.readouterr()
        assert counts == want, (command, counts)


def test_the_checker_reads_the_product_table_in_place(monkeypatch, capsys):
    # `tc corpus:H -n 4` builds the neighbour rows of H^4 and its left
    # factors (4,680) and 48 rows of smaller images (copies of H, the
    # subimages that the category search and the piece tracks restrict),
    # and the checker builds no subimage of its own: the commit before it
    # walked the product's table built 8,896 rows, 512 more per section,
    # the commit before the base's contractibility was settled once built
    # 4,800, one more 8-point table for the second identity search, and
    # the commit before the group check read H's own table built 4,792,
    # 64 more for the H^2 that it scanned, and the commit before a
    # cocycle answered the category's "no"s built 4,728, 8 more for the
    # subimages that the searches of those pieces folded. Nothing builds the point
    # index of H^4: pieces and arms hold indices, and the commit before
    # held that 4,096-entry index for the whole command. Certifying all
    # eight sections with one arm table, the checker path-checks 64 arms
    # and makes 104 `arm_step` calls, not 456 and 736.
    counts: dict = {}
    checking = [False]
    check = complexity.verify_section

    def counted_check(*args):
        checking[0] = True
        try:
            return check(*args)
        finally:
            checking[0] = False

    def counted(restrict):
        def counted_restrict(*args):
            name = "induced in check" if checking[0] else "induced"
            counts[name] = counts.get(name, 0) + 1
            return restrict(*args)
        return counted_restrict

    monkeypatch.setattr(complexity, "verify_section", counted_check)
    # subimages from points and from index masks alike
    for attr in ("induced_subimage", "subimage"):
        restrict = getattr(images, attr)
        for name, module in list(sys.modules.items()):
            if (name.startswith("ditop")
                    and getattr(module, attr, None) is restrict):
                monkeypatch.setattr(module, attr, counted(restrict))
    builds: dict[tuple[str, int], int] = {}
    counted_builds(monkeypatch, "neighbor_index", builds)
    counted_builds(monkeypatch, "_index", builds)
    _counted(monkeypatch, pathspace.WedgeSpace, "arm_step", counts)
    _counted(monkeypatch, pathspace, "is_path", counts)
    assert main("tc corpus:H -n 4 --json".split()) == 0
    capsys.readouterr()
    assert "induced in check" not in counts, counts
    assert sum(size * k for (name, size), k in builds.items()
               if name == "neighbor_index") == 4_720, builds
    assert builds["neighbor_index", 4_096] == 1, builds
    assert max(size for name, size in builds if name == "_index") == 8, builds
    assert (counts["arm_step"], counts["is_path"]) == (104, 64), counts


def test_tc_n_runs_the_exact_category_once(monkeypatch):
    loop, table, _ = loop_bundle()
    counts: dict[str, int] = {}
    _counted(monkeypatch, complexity, "cat_exact", counts)
    r = tc_n(loop, 3, table)
    assert counts == {"cat_exact": 1}
    pieces = tuple(p.points for p in cat_exact(loop).pieces)
    again = tc_n(loop, 3, table, cover=pieces)
    assert (r.lower, r.upper, r.notes) == (again.lower, again.upper,
                                           again.notes)
    assert [(sw.piece, sw.wedges) for sw in r.witness] \
        == [(sw.piece, sw.wedges) for sw in again.witness]


def _reusing_tampers(fib, good: SectionWitness):
    """Sections after `good` in one certification, every arm of which is
    one of good's, so the shared arm table has decided them all: good
    with its wedges moved one point along the piece (they end elsewhere),
    and good with the wedge at one end of a piece edge swapped for
    another of its fiber, made of good's arms, one that is not within one
    step of the wedge at the other end."""
    yield "ends at", SectionWitness(good.piece,
                                    good.wedges[1:] + good.wedges[:1])
    known = {arm for w in good.wedges for arm in w}
    at = dict(zip(good.piece, good.wedges))
    nbrs = fib.product.neighbor_index
    for i in good.piece:
        for j in (j for j in nbrs[i] if j > i and j in at):
            for w in itertools.islice(fib.fiber(j), 5_000):
                if (w != at[j] and known.issuperset(w)
                        and not wedge_adjacent_oracle(fib, at[i], w)):
                    k = good.piece.index(j)
                    yield "section jumps across the edge", SectionWitness(
                        good.piece,
                        good.wedges[:k] + (w,) + good.wedges[k + 1:])
                    return
    raise AssertionError("no reusing tamper found")


def test_a_tampered_section_after_a_good_one_fails_on_the_shared_table(
        monkeypatch):
    # `_certify` keeps one arm table across its sections; a bad section
    # built from arms it has already path-checked, after the section that
    # brought them, must still fail on its own ends and edges
    loop, table, cover = loop_bundle()
    _, wits, m = tc_upper_via_group(loop, table, 3, cover)
    fib = EndpointFibration(loop, 3, m)
    good = wits[0]
    counts: dict[str, int] = {}
    _counted(monkeypatch, pathspace, "is_path", counts)
    tampers = list(_reusing_tampers(fib, good))
    assert [why for why, _ in tampers] == ["ends at",
                                           "section jumps across the edge"]
    for why, bad in tampers:
        assert not verify_section_oracle(fib, bad)[0]
        counts.clear()
        with pytest.raises(complexity.TheoremViolation,
                           match=f"reused: a section failed verification: "
                                 f".*{why}"):
            complexity._certify(fib, (good, bad) + wits[1:], "reused")
        # good's arms were path-checked once, and bad's needed no check
        assert counts["is_path"] == len({a for w in good.wedges for a in w})


def test_an_empty_piece_is_a_section_on_one_side_and_on_two():
    # no point and no edge: no arm column to read either
    loop = loop_bundle()[0]
    one = EndpointFibration(loop, 1, 2)
    for fib in (EndpointFibration(loop, 2, 2), PairedFibration(one, one)):
        empty = SectionWitness((), ())
        assert verify_section(fib, empty) == verify_section_oracle(fib, empty) \
            == (True, None)


def _malformed(fib, w) -> list:
    """Variants of the wedge w that are no wedge: an arm short, one arm
    cut by a tick, one arm off the base; over a pair, its left side so,
    and a lone side in place of the pair."""
    def broken(v):
        arm = v[0]
        return [v[:-1], (arm[:-1],) + v[1:],
                ((len(fib.product.points),) * len(arm),) + v[1:]]
    if isinstance(fib, PairedFibration):
        return [(v, w[1]) for v in broken(w[0])] + [(w[0],)]
    return broken(w)


def test_the_shared_arm_table_numbers_non_arms_with_int_ids():
    # non-arms get ids too, with start and end -1, so the fault vector
    # marks them; no id is None after the tampered sections
    for fib, sections in _large_sections():
        good, tables = sections[0], {}
        pts = fib.product.points
        want = (False, f"assignment at {pts[good.piece[0]]} is not a wedge "
                       f"of {fib.n} paths of length {fib.m}")
        for w in _malformed(fib, good.wedges[0]):
            bad = SectionWitness(good.piece, (w,) + good.wedges[1:])
            assert verify_section(fib, bad, tables) == want
        assert verify_section(fib, good, tables) == (True, None)
        ids = [a for t in tables.values() for a in t.values()]
        assert ids and all(type(a) is int for a in ids)
        first = tables[fib.sides(good.wedges)[0][0]]  # the broken side's
        assert -1 in first.starts and -1 in first.ends
