"""Lusternik–Schnirelmann category of a digital image.

The category of (X, adj) is the least number of subsets covering X whose
inclusion maps are each nullhomotopic inside X. The count is of the sets
themselves, so a contractible image has category 1. Pieces need not be
connected. No edge joins two components of a piece, so in a connected
image its inclusion is nullhomotopic exactly when each component's
inclusion is: the components move side by side, each to a constant and
then along a path to a common point. `homotopy.nullhomotopy` settles
every piece; this module adds only the memo, which answers each piece's
folded core, so a core is searched once however many pieces share it,
and the automorphism group's generators, so that memo answers whole
orbits of pieces. Pieces are bitmasks of base point indices, as in
`covers`, until a final cover's pieces are written out as points.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from . import covers
from .covers import (AdmissibilityOracle, BoundResult, minimal_cover_bounds,
                     minimal_cover_exact, Subset)
from .covers import maximal_admissible_sets  # noqa: F401 (the bench tracer rebinds it)
from .homotopy import (BudgetExhausted, HomotopyWitness, is_contractible,
                       nullhomotopy, slides, verify_homotopy)
from .homotopy import slide_nullhomotopy  # noqa: F401 (the bench tracer rebinds it)
from .images import DigitalImage, Record
from .maps import DigitalMap, automorphism_generators


class CatPiece(Record):
    def __init__(self, points: Subset, contraction: HomotopyWitness):
        self.__dict__.update(points=points, contraction=contraction)


class CatWitness(Record):
    def __init__(self, base: DigitalImage, pieces: tuple[CatPiece, ...]):
        self.__dict__.update(base=base, pieces=pieces)

    @property
    def size(self) -> int:
        return len(self.pieces)

    def check(self) -> tuple[bool, str | None]:
        covered = set()
        for k, piece in enumerate(self.pieces):
            covered.update(piece.points)
            incl = DigitalMap.inclusion_of(self.base,
                                           self.base.mask(piece.points))
            w = piece.contraction
            ok, why = verify_homotopy(w, incl)
            if not ok:
                return False, f"piece {k}: {why}"
            if not w.end.is_constant():
                return False, f"piece {k}: homotopy does not end at a constant"
        missing = [p for p in self.base.points if p not in covered]
        if missing:
            return False, f"point {missing[0]} is not covered"
        return True, None


def piece_contraction(base: DigitalImage, piece: int,
                      lookup: Callable[[int], Optional[HomotopyWitness]]
                      | None = None,
                      ) -> Optional[HomotopyWitness]:
    """Nullhomotopy of the inclusion into the base of the piece, a
    bitmask of base point indices, if any."""
    return nullhomotopy(DigitalMap.inclusion_of(base, piece), lookup=lookup)


def cat_oracle(base: DigitalImage) -> AdmissibilityOracle:
    """Admissibility of categorical pieces; the memo answers their cores.

    If H contracts the inclusion of U, then g H_t g^-1 contracts that of
    g(U) for every automorphism g, and the search is complete, so a
    verdict holds on its set's orbit: the oracle gets the automorphism
    group's generators. Past the sweep limit no set is asked about, so
    none are sought there.
    """
    generators = (automorphism_generators(base)
                  if len(base.points) <= covers.SWEEP_LIMIT else ())
    oracle = AdmissibilityOracle(base, lambda piece: piece_contraction(
        base, piece, owner().witness), generators=generators)
    # a weak reference, so that the oracle and search form no cycle and
    # the memo's witnesses are freed with the oracle, not by the collector
    owner = weakref.ref(oracle)
    return oracle


def cat_exact(base: DigitalImage) -> CatWitness:
    """Minimum categorical cover with verified contractions per piece.

    Asks about every subset that no maximal categorical set found so far
    contains, and is limited to `covers.SWEEP_LIMIT` points; raises
    BudgetExhausted if some piece's homotopy search cannot be settled.
    Verdicts hold on whole orbits of the base's automorphisms
    (`cat_oracle`), but each piece is searched on its own set, so the
    cover and its contractions are those found without them.
    """
    if not base.is_connected:
        raise ValueError("category here is for connected images; "
                         "split into components first")
    oracle = cat_oracle(base)
    witness = CatWitness(base, tuple(
        CatPiece(base.points_of(s), oracle.witness(s))
        for s in minimal_cover_exact(base, oracle)))
    ok, why = witness.check()
    if not ok:
        raise AssertionError(f"cat witness failed its own check: {why}")
    return witness


def cat(base: DigitalImage) -> int:
    return cat_exact(base).size


def cat_bounds(base: DigitalImage) -> BoundResult:
    """Bracket the category when the exact sweep is out of reach.

    The piece test is slide-only (sound, incomplete). Whole-image
    contractibility is settled exactly by `is_contractible` within the
    active `budget`. When the budget runs out it is left unsettled and the
    lower bound stays 1. The whole image is never slid as a piece: a
    "yes" returns the cover of one at once, and after a "no" or a search
    that ran out no slide of the identity holds, since it would restrict
    to a slide of the core, which is tried before any search.
    """
    if not base.is_connected:
        raise ValueError("category here is for connected images; "
                         "split into components first")
    try:
        whole: bool | None = is_contractible(base)
    except BudgetExhausted:
        whole = None
    full = (1 << len(base.points)) - 1

    def slide_only(piece: int) -> Optional[HomotopyWitness]:
        if piece == full:
            return None
        return next(slides(DigitalMap.inclusion_of(base, piece)), None)

    oracle = AdmissibilityOracle(base, slide_only)
    r = minimal_cover_bounds(base, oracle, whole_admissible=whole)
    return BoundResult(r.lower, r.upper,
                       tuple(map(base.points_of, r.witness)), r.notes)
