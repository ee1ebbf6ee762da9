"""Minimal covers of an image by admissible subsets.

Both the category and the sectional-genus computations reduce to the same
question: cover the point set with as few subsets as possible, where a
subset is "admissible" when an expensive search finds its witness (a
contraction of its inclusion / a section over it). Admissibility is
hereditary in every use here — subsets of admissible sets stay
admissible — so minimal covers can be searched over maximal admissible
sets only.

A subset is the bitmask of its point indices in the base, from the
sweep through the oracle and its memo to the cover and the searches the
oracle calls; points come back only for messages and for the callers'
reports.

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
from functools import reduce
from operator import or_
from typing import Callable, Iterator, Optional, Sequence

from .images import DigitalImage, Point, Record, bits

Subset = tuple[Point, ...]

# most points maximal_admissible_sets will sweep; every exact category
# and genus route stops here
SWEEP_LIMIT = 14
# most families of one size that minimal_cover_exact will try
_SCAN_GUARD = 500_000


class CoverImpossible(Exception):
    """Some point lies in no admissible set, so no cover exists."""


class BoundResult(Record):
    """An integer bracketed from both sides, with how each side was won."""

    def __init__(self, lower: int, upper: Optional[int], witness: object = None,
                 notes: tuple[str, ...] = ()):
        if upper is not None and lower > upper:
            raise ValueError(f"lower bound {lower} exceeds upper {upper}")
        self.__dict__.update(lower=lower, upper=upper, witness=witness,
                             notes=notes)

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

    A set is the bitmask of its base point indices, and `search(mask)`
    returns a witness (a contraction, a section) or None; the memo keeps
    that result, so every piece is searched at most once. Heredity gives
    no shortcut here: the sweep never asks about subsets of admissible
    sets and greedy pieces only grow. Symmetry does. `generators`,
    permutations of the base's point indices (default none), are a
    caller's promise that admissibility is the same on every orbit of the
    group they generate. Each search's verdict is then recorded on the
    searched set's whole orbit, the closure of its mask under the
    generators, and a yes/no query answers from that record. `witness`
    returns None without a search on a set whose orbit is known
    inadmissible, and otherwise searches the set itself, so no witness
    depends on the generators. A search that raises records nothing.
    """

    def __init__(self, base: DigitalImage,
                 search: Callable[[int], object],
                 generators: Sequence[Sequence[int]] = ()):
        self.base = base
        self.search = search
        self.generators = tuple(generators)
        self.calls = 0
        # by the index bitmask of a set: the witness of each set searched,
        # and the verdict on each set of a searched set's orbit
        self._memo: dict[int, object] = {}
        self._known: dict[int, bool] = {}

    def __call__(self, mask: int) -> bool:
        known = self._known.get(mask)
        if known is None:
            known = self._search(mask) is not None
        return known

    def witness(self, mask: int):
        """The search's witness for the set, or None if inadmissible."""
        if mask in self._memo:
            return self._memo[mask]
        if self._known.get(mask) is False:
            return None
        return self._search(mask)

    def _search(self, mask: int):
        if not 0 < mask < 1 << len(self.base.points):
            raise ValueError("admissible pieces are nonempty sets of the "
                             "base's point indices")
        self.calls += 1
        found = self._memo[mask] = self.search(mask) or None
        for image in self._orbit(mask):
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
                            oracle: AdmissibilityOracle) -> list[int]:
    """All admissible sets, as masks, with no admissible strict superset,
    largest first, lexicographic by index within a size. The oracle is
    asked about every set, in that order, that no maximal set found at a
    larger size contains; limited to SWEEP_LIMIT points."""
    n = len(base.points)
    if n > SWEEP_LIMIT:
        raise ValueError(f"maximal-set sweep is limited to {SWEEP_LIMIT} "
                         f"points, image has {n}")
    full = (1 << n) - 1
    holes: list[int] = []  # complements of the maximal sets
    out: list[int] = []
    for size in range(n, 0, -1):
        # a set of this size lies in no other set of this size, so holes
        # found now bind only the smaller sizes
        found = []
        for combo in _hitting_combinations(n, size, holes):
            mask = sum(1 << i for i in combo)
            if oracle(mask):
                out.append(mask)
                found.append(full ^ mask)
        holes += found
    return out


def minimal_cover_exact(base: DigitalImage,
                        oracle: AdmissibilityOracle) -> tuple[int, ...]:
    """A minimum-size cover of the base by admissible sets, as masks.

    One pass over k = 1, 2, ...: the first family of k maximal admissible
    sets, in `itertools.combinations` order over the maximal-set list
    (largest first, then lexicographic), that covers the base.
    """
    sets = maximal_admissible_sets(base, oracle)
    full = (1 << len(base.points)) - 1
    missing = full & ~reduce(or_, sets, 0)
    if missing:
        raise CoverImpossible(f"no admissible set contains "
                              f"{base.points_of(missing)[0]}; no cover exists")
    for k in itertools.count(1):
        count = math.comb(len(sets), k)
        if count > _SCAN_GUARD:
            raise ValueError(f"cover scan would try {count} families of {k} "
                             f"sets, over the {_SCAN_GUARD} guard")
        for combo in itertools.combinations(sets, k):
            if reduce(or_, combo) == full:
                return combo


def minimal_cover_bounds(base: DigitalImage, oracle: AdmissibilityOracle,
                         whole_admissible: bool | None = None,
                         ) -> BoundResult:
    """Bracket the minimum cover size without the exhaustive sweep; the
    witness is the cover's masks.

    The oracle here may be sound but incomplete (True only with a verified
    witness in hand), so a False answer never feeds a lower bound. Upper
    route: grow greedy pieces point by point. Lower route: 1, raised to 2
    only when the caller settles `whole_admissible` as False by a complete
    method; None leaves it unsettled.
    """
    notes = []

    if whole_admissible:
        notes.append("whole image admissible, cover of one")
        return BoundResult(1, 1, ((1 << len(base.points)) - 1,), tuple(notes))

    pieces = _greedy_cover(base, oracle)
    notes.append("upper from greedy growth")

    lower = 1
    if whole_admissible is False:
        lower = 2
        notes.append("lower 2: the whole image is not admissible")
    elif len(pieces) > 1:
        notes.append("lower stays 1: whole-image admissibility unsettled")
    return BoundResult(lower, len(pieces), tuple(pieces), tuple(notes))


def _greedy_cover(base: DigitalImage, oracle: AdmissibilityOracle) -> list[int]:
    """Pieces grown from the least uncovered index, each by the least
    neighbouring index that keeps it admissible, until none does."""
    closed = base.closed_masks
    remaining = (1 << len(base.points)) - 1
    pieces: list[int] = []
    while remaining:
        piece = remaining & -remaining
        if not oracle(piece):
            raise CoverImpossible(f"no admissible set contains "
                                  f"{base.points_of(piece)[0]}; no cover "
                                  f"exists")
        while True:
            frontier = reduce(or_, map(closed.__getitem__, bits(piece)))
            grow = next((q for q in bits(frontier & ~piece)
                         if oracle(piece | 1 << q)), None)
            if grow is None:
                break
            piece |= 1 << grow
        pieces.append(piece)
        remaining &= ~piece
    return pieces
