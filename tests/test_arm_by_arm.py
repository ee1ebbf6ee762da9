"""The wedge step relation decided arm by arm, against the tick-by-tick
relation it replaced.

`find_section` links piece points through occupancy masks built from
the base's closed neighbourhoods; `verify_section` gives each distinct
arm an id once per call and decides each distinct ordered id pair once,
by `WedgeSpace.arm_step`, for plain and paired fibrations alike. Both
must agree with the memo-free relation kept in `helpers`, and the work
they save is counted here.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.complexity as complexity
import ditop.pathspace as pathspace
from ditop.category import cat_exact
from ditop.cli import main
from ditop.complexity import SectionWitness, find_section, tc_n, verify_section
from ditop.groups import CayleyTable
from ditop.pathspace import EndpointFibration, PairedFibration

from helpers import (AdjacencyStepMasks, loop_bundle, random_grid_image,
                     verify_section_oracle, wedge_adjacent_oracle,
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
    """Two adjacent product points, or one point twice if none are."""
    edges = fib.product.edges()
    if not edges:
        u = rng.choice(fib.product.points)
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
    """The section with one tick of one arm moved to a random base point,
    one arm cut short by a tick, or one wedge (both sides of a pair, most
    often) swapped for another of its fiber."""
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
        arm[t] = rng.choice(space.base.points)
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
        sw = find_section(f, piece)
        if sw is None:
            continue
        assert verify_section(f, sw) == verify_section_oracle(f, sw) \
            == (True, None)
        for w in sw.wedges:
            assert wedge_is_wedge_oracle(f, w)
        for _ in range(4):
            bad = _tampered(rng, f, sw)
            assert verify_section(f, bad) == verify_section_oracle(f, bad)


def _counted(monkeypatch, owner, name: str, counts: dict) -> None:
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


# command -> {call: count}: exact for `arm_step`, which `verify_section`
# calls once per distinct ordered arm pair of each call, and a ceiling
# for the rest. The checker makes no `WedgeSpace.adjacent` call: the
# commit before arm ids made 4, 14 and 10,944, one per piece edge, and
# the commit before the arm-by-arm relation 29,650, 563, 16,384 and
# 73,728 calls of these kinds.
WORK = {
    "genus corpus:cycle:4 -n 1 --m 5 --mode strong": {"arm_step": 4},
    "genus corpus:cycle:14 -n 1 --m 2": {"arm_step": 14},
    "tc corpus:H -n 4": {"arm_step": 736, "is_path": 512, "product": 384},
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
        assert "adjacent" not in counts, (command, counts)
        for call, count in want.items():
            if call == "arm_step":
                assert counts[call] == count, (command, counts)
            else:
                assert 0 < counts[call] <= count, (command, counts)


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
