"""Spaces of digital paths and the endpoint evaluation fibration.

A path of length m in (X, adj) is a map from {0,...,m} that moves by at
most one adjacency step per tick (stalling allowed). The motion-planning
construction works with wedges: n paths of equal length sharing their
start. Evaluating all free endpoints is the fibration e_n from the wedge
space onto the n-fold product of X; its sectional invariants are computed
in `complexity`. A fibration is its own wedge space: `EndpointFibration`
is a `WedgeSpace` and `PairedFibration` a `PairedWedge`, so one object
answers both the fiber and the wedge questions. Walks are the fourth
caller of `maps.backtrack`, ticks as positions, and a fiber is, per
start within m steps of every endpoint, the product of its arms' walks.

An arm is a tuple (q0, ..., qm) of base point indices and a wedge a tuple
of n arms with arm[0] shared. A product point is its index, whose
mixed-radix digits are the arm ends, Σ arm[-1]·|X|^(n-1-k), as sorted
factors concatenate to sorted points (a pair's is left·|right| + right).

The step relation holds arm by arm, and for pairs of wedges on both
sides with one side staying. Both spaces split a list of wedges into
`sides`, one list per side with its own space, and answer per arm
(`is_arm`, `arm_step`) with the adjacency's own test on the arms'
points. The checker, `complexity.verify_section`, works column by
column: it transposes each side into arm columns once, asks `is_arm`
once per distinct arm, and `arm_step` once per distinct ordered arm
pair that a column meets across the piece's edges, which it lists once
from the product's own neighbour table. The section search reads the
relation off per-fiber occupancy tables (`Occupancy`,
`PairedOccupancy`), whose masks are ORed over the base's closed
neighbourhoods and ANDed over ticks and arms.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .images import DigitalImage, power_image, product_image
from .maps import backtrack

Path = tuple[int, ...]  # base point indices, one per tick
Wedge = tuple[Path, ...]


def is_path(img: DigitalImage, seq: Sequence[int]) -> bool:
    """A walk of point indices: all in the image, consecutive entries
    equal or adjacent by the adjacency's own test on their points."""
    pts, adj = img.points, img.adjacency.adjacent
    if not seq or not all(0 <= q < len(pts) for q in seq):
        return False
    return all(a == b or adj(pts[a], pts[b]) for a, b in zip(seq, seq[1:]))


def _ball(img: DigitalImage, i: int, radius: int) -> int:
    """The mask of the points within `radius` steps of point index i."""
    return sum(1 << j for j, d in enumerate(img.distance_matrix[i])
               if 0 <= d <= radius)


def paths_between(img: DigitalImage, start: int, end: int,
                  length: int) -> Iterator[Path]:
    """All walks of exactly `length` steps from point index `start` to
    `end`, as index tuples in lexicographic order: tick t may take the
    points within length - t steps of the end (tick 0 only the start),
    linked to tick t - 1 through the closed neighbourhoods."""
    if length < 0:
        return
    roots = [_ball(img, end, length - t) for t in range(length + 1)]
    roots[0] &= 1 << start
    links = [()] + [((t, img.closed_masks),) for t in range(length)]
    yield from backtrack(roots, links)


class WedgeSpace:
    """Wedges of n equal-length paths with a common start, plus the two
    step relations between them.

    pointwise (the default): wedges are one step apart when every arm is
    pointwise equal or adjacent at each tick. `strong`: additionally each
    arm must stay equal or adjacent across neighboring ticks of the other
    wedge (the stricter function-space relation); both are checked arm
    against same-indexed arm. Arms are tuples of base point indices.

    `adjacent` is a memo-free composition of the per-arm test `arm_step`,
    which uses the adjacency's own test on the arms' points. `occupancy`
    decides the same relation for the section search from the base's
    closed neighbourhoods, sharing no table with these tests.
    """

    def __init__(self, base: DigitalImage, n: int, m: int, *,
                 strong: bool = False):
        if n < 1:
            raise ValueError("a wedge needs at least one arm")
        if m < 0:
            raise ValueError("arm length cannot be negative")
        self.base = base
        self.n = n
        self.m = m
        self.strong = strong
        self.product = power_image(base, n, strong=strong)

    def is_arm(self, arm: Path) -> bool:
        """A path of length m in the base."""
        return len(arm) == self.m + 1 and is_path(self.base, arm)

    def sides(self, wedges: Sequence[Wedge],
              ) -> tuple[tuple["WedgeSpace", Sequence[Wedge]]]:
        """The wedges as one side, with its space (nothing checked)."""
        return ((self, wedges),)

    def constant_wedge(self, q: int) -> Wedge:
        """Every arm standing at base point index q."""
        return ((q,) * (self.m + 1),) * self.n

    def arm_step(self, a1: Path, a2: Path) -> bool:
        """Whether two arms are equal or one step apart, tick by tick (and,
        when strong, across neighbouring ticks), by the adjacency's own
        test on their points."""
        pts, adj = self.base.points, self.base.adjacency.adjacent
        ticks = list(zip(a1, a2))
        if self.strong:
            ticks += list(zip(a1, a2[1:])) + list(zip(a1[1:], a2))
        return all(p == q or adj(pts[p], pts[q]) for p, q in ticks)

    def adjacent(self, w1: Wedge, w2: Wedge) -> bool:
        """Equal-or-one-step relation (reflexive on purpose: homotopy-style
        conditions only ever need "equal or adjacent")."""
        return all(self.arm_step(a1, a2) for a1, a2 in zip(w1, w2))

    def occupancy(self, wedges: Sequence[Wedge]) -> "Occupancy":
        """Step and equality masks over `wedges` (a fiber), by arm."""
        return Occupancy(self, wedges)


class _MaskTable(dict):
    """Index of an earlier wedge -> `masks(earlier[index])`, filled on
    first use, so `maps.backtrack` can link through it."""

    def __init__(self, masks, earlier: Sequence):
        self.masks = masks
        self.earlier = earlier

    def __missing__(self, a: int) -> int:
        m = self[a] = self.masks(self.earlier[a])
        return m


class _Masks:
    """What both occupancy tables give the section search."""

    def step_masks(self, earlier: Sequence) -> _MaskTable:
        """Per index into `earlier`, the mask of the wedges here within one
        step of that wedge, filled on first use."""
        return _MaskTable(self.near, earlier)


class Occupancy(_Masks):
    """The step relation into one list of wedges, decided arm by arm.

    For arm i, tick t and base point index q, `ticks[i][t][q]` is the mask
    of the wedges whose arm i is at q at tick t. A wedge x is within one
    step of w when, for every (i, t), x[i][t] lies in the closed
    neighbourhood of w[i][t] (in strong mode, also of w[i][t - 1] and
    w[i][t + 1]), so `near(w)` is the AND over (i, t) of the OR of the
    occupancy masks over that neighbourhood. Each distinct arm of w is
    decided once per table. `equal(w)` is the AND over i of the masks of
    the wedges whose arm i is exactly w[i]."""

    def __init__(self, space: WedgeSpace, wedges: Sequence[Wedge]):
        self.space = space
        self.exact: list[dict[Path, int]] = [{} for _ in range(space.n)]
        for b, w in enumerate(wedges):
            bit = 1 << b
            for arm, row in zip(w, self.exact):
                row[arm] = row.get(arm, 0) | bit
        self.ticks: list[list[dict[int, int]]] = []
        for row in self.exact:
            ticks: list[dict[int, int]] = [{} for _ in range(space.m + 1)]
            for arm, mask in row.items():
                for q, cell in zip(arm, ticks):
                    cell[q] = cell.get(q, 0) | mask
            self.ticks.append(ticks)
        self._near: list[dict[Path, int]] = [{} for _ in range(space.n)]

    def _near_arm(self, i: int, arm: Path) -> int:
        got = self._near[i].get(arm)
        if got is not None:
            return got
        closed = self.space.base.closed_masks
        balls = [closed[q] for q in arm]
        if self.space.strong:
            balls = [b & (balls[t - 1] if t else -1)
                     & (balls[t + 1] if t + 1 < len(balls) else -1)
                     for t, b in enumerate(balls)]
        mask = -1
        for ball, cell in zip(balls, self.ticks[i]):
            # one tick's cells are disjoint, so their sum is their OR
            mask &= sum(occ for q, occ in cell.items() if ball >> q & 1)
            if not mask:
                break
        self._near[i][arm] = mask
        return mask

    def near(self, w: Wedge) -> int:
        """The mask of the wedges within one step of w."""
        mask = -1
        for i, arm in enumerate(w):
            mask &= self._near_arm(i, arm)
            if not mask:
                break
        return mask

    def equal(self, w: Wedge) -> int:
        """The mask of the wedges equal to w."""
        mask = -1
        for arm, row in zip(w, self.exact):
            mask &= row.get(arm, 0)
        return mask


class _Fibration:
    """What the endpoint fibrations share: a `product` base image and
    `fiber_nonempty` and `reachable` tests on its point indices."""

    def is_surjective(self) -> tuple[bool, Optional[int]]:
        """Whether every point of the base has a nonempty fiber. Returns the
        index of the first unreachable point if not."""
        bad = next((u for u in range(len(self.product.points))
                    if not self.fiber_nonempty(u)), None)
        return bad is None, bad


class EndpointFibration(WedgeSpace, _Fibration):
    """e_n: wedge space over (X, adj) -> X^n, evaluation at the free ends.
    The fibration is its own wedge space."""

    def split(self, u: int) -> tuple[int, ...]:
        """The base point indices of product index u: its n digits."""
        size = len(self.base.points)
        return tuple(u // size ** k % size for k in range(self.n - 1, -1, -1))

    def _starts(self, u: int) -> int:
        """The mask of the points within m steps of every component of u."""
        mask = -1
        for q in self.split(u):
            mask &= _ball(self.base, q, self.m)
        return mask

    def fiber(self, u: int) -> Iterator[Wedge]:
        """All wedges over product index u, lexicographic by (start, arms)."""
        if not 0 <= u < len(self.product.points):
            raise ValueError(f"{u} is not a product index")
        parts, starts = self.split(u), self._starts(u)
        for s in range(starts.bit_length()):
            if starts >> s & 1:
                yield from itertools.product(*(
                    tuple(paths_between(self.base, s, q, self.m))
                    for q in parts))

    def fiber_nonempty(self, u: int) -> bool:
        """Some start lies within m of every component of u."""
        return bool(self._starts(u))

    def reachable(self, u: int) -> bool:
        """Whether some arm length reaches u: its points share a component."""
        first, *rest = self.split(u)
        return -1 not in (self.base.distance_matrix[first][i] for i in rest)


class PairedWedge:
    """Step relation for pairs drawn from two wedge spaces.

    A pair moves one step when each component is equal or one step away
    and they do not both move — the same minimum-product discipline the
    base spaces use, lifted to the function spaces."""

    def __init__(self, left: WedgeSpace, right: WedgeSpace):
        self.left = left
        self.right = right

    def sides(self, pairs: Sequence,
              ) -> tuple[tuple[WedgeSpace, list[Wedge]], ...]:
        """Each component's column of wedges with its space, left first;
        an entry that is not a pair gives () on both sides, no wedge."""
        pairs = [w if len(w) == 2 else ((), ()) for w in pairs]
        return ((self.left, [a for a, _ in pairs]),
                (self.right, [b for _, b in pairs]))

    def occupancy(self, pairs: Sequence) -> "PairedOccupancy":
        return PairedOccupancy(self, pairs)


class PairedOccupancy(_Masks):
    """The paired step relation into one list of pairs: near on the left,
    near on the right, and equal on at least one side."""

    def __init__(self, space: PairedWedge, pairs: Sequence):
        self.left = space.left.occupancy([a for a, _ in pairs])
        self.right = space.right.occupancy([b for _, b in pairs])

    def near(self, w) -> int:
        a, b = w
        left, right = self.left, self.right
        return (left.near(a) & right.near(b)
                & (left.equal(a) | right.equal(b)))


class PairedFibration(PairedWedge, _Fibration):
    """The product of two endpoint fibrations, over the minimum product
    of their bases. Elements of the total space are pairs (left wedge,
    right wedge); the projection evaluates both components at their free
    ends. It is its own paired wedge space, so it satisfies the same
    interface the section search consumes."""

    def __init__(self, left: EndpointFibration, right: EndpointFibration):
        super().__init__(left, right)
        self.n = (left.n, right.n)
        self.m = (left.m, right.m)
        self.product = product_image(left.product, right.product)

    def split(self, u: int) -> tuple[int, int]:
        return divmod(u, len(self.right.product.points))

    def fiber(self, u: int) -> Iterator[tuple]:
        """Pairs (left wedge, right wedge) over u, left-major. The right
        fiber is walked once, alongside the first left wedge, and kept."""
        ul, ur = self.split(u)
        lefts, rights = self.left.fiber(ul), []
        for wl in itertools.islice(lefts, 1):
            for wr in self.right.fiber(ur):
                rights.append(wr)
                yield wl, wr
        for wl in lefts:
            for wr in rights:
                yield wl, wr

    def fiber_nonempty(self, u: int) -> bool:
        ul, ur = self.split(u)
        return self.left.fiber_nonempty(ul) and self.right.fiber_nonempty(ur)

    def reachable(self, u: int) -> bool:
        ul, ur = self.split(u)
        return self.left.reachable(ul) and self.right.reachable(ur)
