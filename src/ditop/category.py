"""Lusternik–Schnirelmann category of a digital image.

The category of (X, adj) is the least number of subsets covering X whose
inclusion maps are each nullhomotopic inside X. The count is of the sets
themselves, so a contractible image has category 1. Pieces need not be
connected. No edge joins two components of a piece, so in a connected
image its inclusion is nullhomotopic exactly when each component's
inclusion is: the components move side by side, each to a constant and
then along a path to a common point. The search settles each component
on its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .covers import (AdmissibilityOracle, BoundResult,
                     maximal_admissible_sets, minimal_cover_bounds,
                     minimal_cover_exact, Subset)
from .homotopy import (BudgetExhausted, HomotopyWitness, fold,
                       is_contractible, nullhomotopy, pull_back,
                       slide_nullhomotopy, verify_homotopy)
from .images import DigitalImage, Point, induced_subimage
from .maps import DigitalMap


@dataclass(frozen=True)
class CatPiece:
    points: Subset
    contraction: HomotopyWitness = field(compare=False)


@dataclass(frozen=True)
class CatWitness:
    base: DigitalImage
    pieces: tuple[CatPiece, ...]

    @property
    def size(self) -> int:
        return len(self.pieces)

    def check(self) -> tuple[bool, str | None]:
        covered = set()
        for k, piece in enumerate(self.pieces):
            covered.update(piece.points)
            incl = DigitalMap.inclusion(
                induced_subimage(self.base, piece.points), self.base)
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


def piece_contraction(base: DigitalImage, subset: Sequence[Point],
                      node_budget: int | None = 2_000_000,
                      ) -> Optional[HomotopyWitness]:
    """Nullhomotopy of the inclusion of `subset` into the base, if any."""
    sub = induced_subimage(base, subset)
    incl = DigitalMap.inclusion(sub, base)
    return nullhomotopy(incl, node_budget=node_budget)


def piece_contraction_slide_only(base: DigitalImage, subset: Sequence[Point],
                                 ) -> Optional[HomotopyWitness]:
    """Sound but incomplete variant: only the geodesic slide is tried, so
    None means "not settled", never "impossible"."""
    sub = induced_subimage(base, subset)
    incl = DigitalMap.inclusion(sub, base)
    for t in base.points:
        w = slide_nullhomotopy(incl, t)
        if w is not None:
            return w
    return None


def cat_oracle(base: DigitalImage,
               node_budget: int | None = 2_000_000) -> AdmissibilityOracle:
    """Admissibility of categorical pieces.

    A piece A whose slides all tear and whose domain folds to a smaller
    core C asks the oracle about C and lifts C's witness. This is sound
    because incl_A ~ incl_C o r, with r the fold's retraction; the memo
    then searches each core once, however many pieces fold to it.
    """

    def search(sub: Subset) -> Optional[HomotopyWitness]:
        folded = fold(induced_subimage(base, sub))
        if not folded.steps:
            return piece_contraction(base, sub, node_budget)
        w = piece_contraction_slide_only(base, sub)
        if w is None:
            core = owner().witness(folded.core.points)
            if core is not None:
                w = pull_back(DigitalMap.inclusion(folded.image, base),
                              folded, core.stages)
        return w

    oracle = AdmissibilityOracle(base, search)
    # a weak reference, so that the oracle and search form no cycle and
    # the memo's witnesses are freed with the oracle, not by the collector
    owner = weakref.ref(oracle)
    return oracle


def cat_exact(base: DigitalImage,
              node_budget: int | None = 2_000_000) -> CatWitness:
    """Minimum categorical cover with verified contractions per piece.

    Exhaustive over subsets, so limited to `covers.SWEEP_LIMIT` points;
    raises BudgetExhausted if some piece's homotopy search cannot be
    settled.
    """
    if not base.is_connected:
        raise ValueError("category here is for connected images; "
                         "split into components first")
    oracle = cat_oracle(base, node_budget)
    witness = CatWitness(base, tuple(
        CatPiece(s, oracle.witness(s))
        for s in minimal_cover_exact(base, oracle)))
    ok, why = witness.check()
    if not ok:
        raise AssertionError(f"cat witness failed its own check: {why}")
    return witness


def cat(base: DigitalImage, node_budget: int | None = 2_000_000) -> int:
    return cat_exact(base, node_budget).size


def cat_bounds(base: DigitalImage,
               node_budget: int | None = 200_000) -> BoundResult:
    """Bracket the category when the exact sweep is out of reach.

    The piece test is slide-only (sound, incomplete). Whole-image
    contractibility is settled exactly (slide, then the folded search)
    within the node budget; when the budget runs out it is left unsettled,
    so the slide-only piece test on the whole image still certifies True,
    and otherwise the lower bound honestly remains 1.
    """
    if not base.is_connected:
        raise ValueError("category here is for connected images; "
                         "split into components first")
    whole: bool | None = None
    torn: frozenset = frozenset()
    try:
        whole = is_contractible(base, node_budget)
    except BudgetExhausted:
        # the search ran only after every slide of the identity tore, and
        # sliding the whole image as a piece would tear the same way
        torn = frozenset(base.points)

    def slide_only(sub: Subset) -> Optional[HomotopyWitness]:
        if frozenset(sub) == torn:
            return None
        return piece_contraction_slide_only(base, sub)

    oracle = AdmissibilityOracle(base, slide_only)
    return minimal_cover_bounds(base, oracle, whole_admissible=whole)


def categorical_subsets(base: DigitalImage,
                        node_budget: int | None = 2_000_000) -> list[Subset]:
    """The maximal subsets with nullhomotopic inclusion (for inspection)."""
    return maximal_admissible_sets(base, cat_oracle(base, node_budget))
