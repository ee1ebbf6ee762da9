"""Minimal covers of an image by admissible subsets.

Both the category and the sectional-genus computations reduce to the same
question: cover the point set with as few subsets as possible, where a
subset is "admissible" when an expensive search finds its witness (a
contraction of its inclusion / a section over it). Admissibility is
hereditary in every use here — subsets of admissible sets stay
admissible — so minimal covers can be searched over maximal admissible
sets only.

The maximal sets are found largest first. A subset contained in a maximal
set already found misses that set's complement (its "hole"), so the
sweep enumerates only the subsets that meet every hole: the transversals
of the holes, the dual view of Fredman and Khachiyan's monotone
dualization. The oracle sees those subsets in `itertools.combinations`
order, the same questions in the same order as a walk of the power set
that skips dominated subsets, whatever the predicate.

Admissibility may also be invariant under a group acting on the points,
as a categorical piece is under the image's automorphisms. The oracle
then records each search's verdict on the searched set's whole orbit,
so the sweep pays one search per orbit of the sets it asks about, while
every witness it hands out still comes from a search of its own set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .images import DigitalImage, Point

Subset = tuple[Point, ...]

# most points maximal_admissible_sets will sweep; every exact category
# and genus route stops here
SWEEP_LIMIT = 14
# most families of one size that minimal_cover_exact will try
_SCAN_GUARD = 500_000


class CoverImpossible(Exception):
    """Some point lies in no admissible set, so no cover exists."""


@dataclass(frozen=True)
class BoundResult:
    """An integer bracketed from both sides, with how each side was won."""

    lower: int
    upper: Optional[int]
    witness: object = field(default=None, compare=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError(f"lower bound {self.lower} exceeds upper {self.upper}")

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("bounds are not tight, no single value")
        return self.lower


class AdmissibilityOracle:
    """Memoizing wrapper around a search for an admissibility witness.

    `search(subset)` returns a witness (a contraction, a section) or None;
    the memo keeps that result, so every piece is searched at most once.
    Heredity gives no shortcut here: the sweep never asks about subsets of
    admissible sets and greedy pieces only grow. Symmetry does.
    `generators`, permutations of the base's point indices (default
    none), are a caller's promise that admissibility is the same on every
    orbit of the group they generate. Each search's verdict is then
    recorded on the searched set's whole orbit, the closure of its
    index bitmask under the generators, and a yes/no query answers from
    that record. `witness` returns None without a search on a set whose
    orbit is known inadmissible, and otherwise searches the set itself,
    so no witness depends on the generators. A search that raises
    records nothing.
    """

    def __init__(self, base: DigitalImage,
                 search: Callable[[Subset], object],
                 generators: Sequence[Sequence[int]] = ()):
        self.base = base
        self.search = search
        self.generators = tuple(generators)
        self.calls = 0
        # by the index bitmask of a set: the witness of each set searched,
        # and the verdict on each set of a searched set's orbit
        self._memo: dict[int, object] = {}
        self._known: dict[int, bool] = {}

    def canonical(self, subset: Iterable[Point]) -> Subset:
        sub = tuple(sorted(set(tuple(p) for p in subset)))
        for p in sub:
            if p not in self.base:
                raise ValueError(f"{p} is not a point of the base image")
        if not sub:
            raise ValueError("empty subsets are never admissible pieces")
        return sub

    def _keyed(self, subset: Iterable[Point]) -> tuple[Subset, int]:
        sub = self.canonical(subset)
        return sub, sum(1 << self.base.index(p) for p in sub)

    def __call__(self, subset: Iterable[Point]) -> bool:
        sub, key = self._keyed(subset)
        known = self._known.get(key)
        if known is None:
            known = self._search(sub, key) is not None
        return known

    def witness(self, subset: Iterable[Point]):
        """The search's witness for the subset, or None if inadmissible."""
        sub, key = self._keyed(subset)
        if key in self._memo:
            return self._memo[key]
        if self._known.get(key) is False:
            return None
        return self._search(sub, key)

    def _search(self, sub: Subset, key: int):
        self.calls += 1
        found = self._memo[key] = self.search(sub) or None
        for image in self._orbit(key):
            self._known[image] = found is not None
        return found

    def _orbit(self, key: int) -> set[int]:
        orbit = {key}
        todo = [key]
        while todo:
            mask = todo.pop()
            for g in self.generators:
                image = sum(1 << v for i, v in enumerate(g) if mask >> i & 1)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        return orbit


def _hitting_combinations(n: int, size: int, holes: Sequence[int],
                          ) -> Iterator[tuple[int, ...]]:
    """The `size`-subsets of range(n) that meet every hole (a bitmask of
    indices), in `itertools.combinations` order. An empty hole admits
    none."""

    def extend(prefix: tuple[int, ...], start: int,
               unhit: Sequence[int]) -> Iterator[tuple[int, ...]]:
        left = size - len(prefix)
        if not unhit:
            for rest in itertools.combinations(range(start, n), left):
                yield prefix + rest
            return
        if left == 1:
            common = -1 << start
            for h in unhit:
                common &= h
            while common:
                low = common & -common
                yield prefix + (low.bit_length() - 1,)
                common ^= low
            return
        for i in range(start, n - left + 1):
            if any(h >> i == 0 for h in unhit):
                return  # that hole has no index left at or after i
            bit = 1 << i
            yield from extend(prefix + (i,), i + 1,
                              [h for h in unhit if not h & bit])

    return extend((), 0, holes)


def maximal_admissible_sets(base: DigitalImage,
                            oracle: AdmissibilityOracle) -> list[Subset]:
    """All admissible subsets with no admissible strict superset, largest
    first, lexicographic within a size. The oracle is asked about every
    subset, in that order, that no maximal set found at a larger size
    contains; limited to SWEEP_LIMIT points."""
    n = len(base.points)
    if n > SWEEP_LIMIT:
        raise ValueError(f"maximal-set sweep is limited to {SWEEP_LIMIT} "
                         f"points, image has {n}")
    pts = base.points
    full = (1 << n) - 1
    holes: list[int] = []  # complements of the maximal sets, as bitmasks
    out: list[Subset] = []
    for size in range(n, 0, -1):
        # a set of this size lies in no other set of this size, so holes
        # found now bind only the smaller sizes
        found = []
        for combo in _hitting_combinations(n, size, holes):
            sub = tuple(pts[i] for i in combo)
            if oracle(sub):
                out.append(sub)
                found.append(full ^ sum(1 << i for i in combo))
        holes += found
    return out


def _check_coverable(base: DigitalImage, sets: Sequence[Subset]) -> None:
    covered = set()
    for s in sets:
        covered.update(s)
    missing = [p for p in base.points if p not in covered]
    if missing:
        raise CoverImpossible(
            f"no admissible set contains {missing[0]}; no cover exists")


def minimal_cover_exact(base: DigitalImage,
                        oracle: AdmissibilityOracle) -> tuple[Subset, ...]:
    """A minimum-size cover of the base by admissible sets.

    One pass over k = 1, 2, ...: the first family of k maximal admissible
    sets, in `itertools.combinations` order over the maximal-set list
    (largest first, then lexicographic), that covers the base.
    """
    sets = maximal_admissible_sets(base, oracle)
    _check_coverable(base, sets)
    masks = []
    for s in sets:
        m = 0
        for p in s:
            m |= 1 << base.index(p)
        masks.append(m)
    full = (1 << len(base.points)) - 1
    for k in itertools.count(1):
        count = math.comb(len(sets), k)
        if count > _SCAN_GUARD:
            raise ValueError(f"cover scan would try {count} families of {k} "
                             f"sets, over the {_SCAN_GUARD} guard")
        for combo in itertools.combinations(range(len(sets)), k):
            got = 0
            for i in combo:
                got |= masks[i]
            if got == full:
                return tuple(sets[i] for i in combo)


def minimal_cover_bounds(base: DigitalImage, oracle: AdmissibilityOracle,
                         whole_admissible: bool | None = None,
                         ) -> BoundResult:
    """Bracket the minimum cover size without the exhaustive sweep.

    The oracle here may be sound but incomplete (True only with a verified
    witness in hand), so a False answer never feeds a lower bound. Upper
    route: grow greedy pieces point by point. Lower route: 1, raised to 2
    only when the caller settles `whole_admissible` as False by a complete
    method; None leaves it unsettled.
    """
    notes = []

    if whole_admissible:
        notes.append("whole image admissible, cover of one")
        return BoundResult(1, 1, (base.points,), tuple(notes))

    pieces = _greedy_cover(base, oracle)
    notes.append("upper from greedy growth")

    lower = 1
    if whole_admissible is False:
        lower = 2
        notes.append("lower 2: the whole image is not admissible")
    elif len(pieces) > 1:
        notes.append("lower stays 1: whole-image admissibility unsettled")
    return BoundResult(lower, len(pieces), tuple(pieces), tuple(notes))


def _greedy_cover(base: DigitalImage, oracle: AdmissibilityOracle) -> list[Subset]:
    remaining = list(base.points)
    pieces: list[Subset] = []
    while remaining:
        seed = remaining[0]
        if not oracle((seed,)):
            raise CoverImpossible(
                f"no admissible set contains {seed}; no cover exists")
        piece = [seed]
        grown = True
        while grown:
            grown = False
            in_piece = set(piece)
            frontier = sorted({q for p in piece for q in base.neighbors(p)
                               if q not in in_piece})
            for q in frontier:
                if oracle(tuple(piece) + (q,)):
                    piece.append(q)
                    piece.sort()
                    grown = True
                    break
        pieces.append(tuple(piece))
        covered = set(piece)
        remaining = [p for p in remaining if p not in covered]
    return pieces
