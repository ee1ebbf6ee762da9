"""Sectional genus of the endpoint fibration and higher complexity.

TC_n of an image is the least number of subsets covering the n-fold
product, each admitting a continuous section of the endpoint evaluation
e_n (a motion planning rule: endpoints in, wedge of paths out, varying by
at most a step when the endpoints do).

Routes, in the order `tc_n` tries them:
  * n = 1: standing still is one global section;
  * contractible bases: one global section whose arms replay the
    contraction of the base backwards from its collapse point;
  * tiny products: exact — admissibility of a piece is decided by a
    backtracking section search over materialized fibers;
  * group-bearing bases: the translation construction turns a categorical
    cover of the base into explicit sections, one piece per (n-1)-tuple
    of cover pieces, giving an upper bound with witnesses;
  * the category of the base bounds every TC_n from below.

Every arm that runs a track backwards comes from `_replay`, and every
section a proof backs (standing still, the contraction, the translation
pieces, `product_of_sections`) or the exact search finds (`schwarz_genus`)
passes the one certifier `_certify`. A fibration is its own wedge space, so
the search asks it for fibers and occupancy tables, and the checker for
its sides, directly. Sections hold product and base point indices, so the
translation route works on the group's grid and the checker, which reads
them column by column, reads no point index; points are read back only
for reports, messages and section files.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import ne, or_
from typing import Mapping, Optional, Sequence

# piece_contraction is unused here, but bench/selftest.py checks that the
# tracer rebinds it in this module
from .category import cat_exact, piece_contraction  # noqa: F401
from . import covers
from .covers import (AdmissibilityOracle, BoundResult, CoverImpossible,
                     minimal_cover_exact, Subset)
from .homotopy import (BudgetExhausted, HomotopyWitness, contraction,
                       shortest_nullhomotopy, slides)
from .homotopy import slide_nullhomotopy  # noqa: F401 (the bench tracer rebinds it)
from .images import DigitalImage, Value, bits
from .maps import DigitalMap, backtrack
from .pathspace import EndpointFibration, PairedFibration, Path, Wedge
from .groups import CayleyTable, is_topological_group

# most wedges find_section materializes per fiber before it gives up
_FIBER_CAP = 20_000


class TheoremViolation(Exception):
    """A construction that is guaranteed by a proved statement failed its
    verification — this signals a bug, never a legitimate outcome, so it
    is loud and carries the evidence."""


class ArmTooShort(ValueError):
    """The arm length is below what a proved construction needs."""


class SectionWitness(Value, key=("piece",)):
    """A continuous motion planning rule over one piece of the product, in
    index space: `piece` holds product indices, and each wedge's arms
    (each side's, over a paired fibration) hold base point indices."""

    def __init__(self, piece: tuple[int, ...], wedges: tuple[Wedge, ...]):
        self.__dict__.update(piece=piece, wedges=wedges)


class _ArmTable(dict):
    """One side space's arms for the checker, arm -> id: the lookup that
    first meets an arm path-checks and numbers it. Each id keeps its arm,
    start and end digit (-1 both for no arm of the space), and each
    ordered id pair its `arm_step` verdict once decided."""

    def __init__(self, space):
        self.space = space
        self.arms: list[Path] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.steps: dict[tuple[int, int], bool] = {}

    def __missing__(self, arm: Path) -> int:
        self[arm] = a = len(self.arms)
        ok = self.space.is_arm(arm)
        self.arms.append(arm)
        self.starts.append(arm[0] if ok else -1)
        self.ends.append(arm[-1] if ok else -1)
        return a

    def bad_pairs(self, pairs) -> set[tuple[int, int]]:
        """The pairs of distinct ids whose arms are not within one step."""
        steps, arms, step = self.steps, self.arms, self.space.arm_step
        bad = set()
        for a, b in pairs:
            if a != b:
                ok = steps.get((a, b))
                if ok is None:
                    ok = steps[a, b] = step(arms[a], arms[b])
                if not ok:
                    bad.add((a, b))
        return bad


def _first(flags) -> int:
    """The position of the first true flag (there is one)."""
    return next(at for at, flag in enumerate(flags) if flag)


def verify_section(fib: EndpointFibration, sw: SectionWitness,
                   tables: dict | None = None) -> tuple[bool, str | None]:
    """Pointwise and edgewise check of a section over its piece, column
    by column on arm ids, in one pass over the product's own table;
    points appear only in messages. Each side (the one side of a wedge,
    or either component of a pair) is transposed into arm columns once,
    a wedge of the wrong length read as non-arms: each column's new arms
    are path-checked and numbered, one fault vector marks the points
    whose columns do not share a start (a non-arm's is -1), and the end
    digits, read in mixed radix, must give the piece's indices. Then per
    arm column each distinct ordered id pair met across the piece's edges
    is decided by the side's `arm_step`; a pair moves on at most one
    side. The failure named is the first failing point in piece order,
    else the least failing edge. `tables`, side's space -> `_ArmTable`,
    keeps the arms checked for later calls (`_certify` shares one for
    all its sections; fresh ones by default)."""
    tables = {} if tables is None else tables
    pts, piece = fib.product.points, sw.piece
    if len(piece) != len(sw.wedges):
        return False, "piece and assignment lengths differ"
    at = dict(zip(piece, range(len(piece))))  # product index -> position
    if len(at) != len(piece):
        return False, "piece repeats a point"
    # per side its table and id columns; the product indices that the arm
    # ends spell; the fault vector
    sides, ends, shaped = [], [0] * len(piece), [True] * len(piece)
    for space, wedges in fib.sides(sw.wedges):
        table = tables.get(space)
        if table is None:
            table = tables[space] = _ArmTable(space)
        columns = [list(map(table.__getitem__, col)) for col in zip(*(
            w if len(w) == space.n else ((),) * space.n for w in wedges))]
        starts = [list(map(table.starts.__getitem__, c)) for c in columns]
        for s in starts:  # a non-arm starts at -1
            if s != starts[0] or -1 in s:
                shaped = [ok and x == y != -1
                          for ok, x, y in zip(shaped, s, starts[0])]
        # the arm ends are the product index's digits, base |X| on each
        # side, so a pair's index comes out as left·|right product| + right
        size = len(space.base.points)
        for c in columns:
            ends = [x * size + y
                    for x, y in zip(ends, map(table.ends.__getitem__, c))]
        sides.append((table, columns))
    # ends equal to the piece lie in the product: arm ends are base indices
    if not (all(shaped) and ends == list(piece)):
        for k, u in enumerate(piece):
            if not 0 <= u < len(pts):
                return False, f"{u} is not in the product image"
            if not shaped[k]:
                return False, (f"assignment at {pts[u]} is not a wedge of "
                               f"{fib.n} paths of length {fib.m}")
            if ends[k] != u:
                return False, f"assignment at {pts[u]} ends at {pts[ends[k]]}"

    # the piece's edges (i, j), i < j, in ascending order, as positions
    nbrs, src, dst = fib.product.neighbor_index, [], []
    for i in sorted(at):
        p = at[i]
        for j in nbrs[i]:
            if j > i and j in at:
                src.append(p)
                dst.append(at[j])

    def across(c: list) -> zip:
        """A column's id pairs across the edges, in edge order."""
        return zip(map(c.__getitem__, src), map(c.__getitem__, dst))

    jump, moved = len(src), []  # the least failing edge so far
    for table, columns in sides:
        for c in columns:
            bad = table.bad_pairs(set(across(c)))
            if bad:
                jump = min(jump, _first(map(bad.__contains__, across(c))))
        if len(sides) > 1:  # which edges move this side
            rows = list(zip(*columns))
            moved.append(list(map(ne, map(rows.__getitem__, src),
                                  map(rows.__getitem__, dst))))
    if any(map(all, zip(*moved))):  # a pair moves on at most one side
        jump = min(jump, _first(map(all, zip(*moved))))
    if jump < len(src):
        i, j = piece[src[jump]], piece[dst[jump]]
        return False, (f"section jumps across the edge {pts[i]} ~ "
                       f"{pts[j]}: assigned wedges are not within one step")
    return True, None


def _certify(fib, sections: Sequence[SectionWitness], what: str) -> None:
    """Verify each section of a proved construction or of the exact
    search once and check that together they cover the product. Any
    failure is a bug, so it raises TheoremViolation naming its source."""
    tables: dict = {}  # one arm table per side's space for them all
    for sw in sections:
        ok, why = verify_section(fib, sw, tables)
        if not ok:
            raise TheoremViolation(
                f"{what}: a section failed verification: {why}")
    covered = {u for sw in sections for u in sw.piece}
    if len(covered) < len(fib.product.points):
        missing = next(u for u in range(len(fib.product.points))
                       if u not in covered)
        raise TheoremViolation(f"{what}: the pieces miss the product point "
                               f"{fib.product.points[missing]}")


def _replay(track: Sequence[Mapping[int, int]], p: int, m: int) -> Path:
    """The arm of length m that runs the track, base point indices per
    stage, backwards to p: at tick t it takes stage min(m - t, last), so
    an arm longer than the track waits at the track's end point first."""
    last = len(track) - 1
    return tuple(track[min(m - t, last)][p] for t in range(m + 1))


def find_section(fib: EndpointFibration,
                 piece: int) -> Optional[SectionWitness]:
    """The first section over the piece, a bitmask of product indices,
    found by `maps.backtrack`, or None.

    Positions are the piece's points, most-constrained-first (descending
    degree inside the piece, then index order, visited so each next point
    touches placed ones where possible), linked by the product's own
    neighbour table, as the checker reads it. Bit b at a point is the
    b-th wedge of its fiber, materialized up to _FIBER_CAP wedges, and
    each piece edge links both its points, each to the other through the
    step masks of its own fiber's `occupancy` table, built once per fiber:
    the relation is decided arm by arm from the base's closed
    neighbourhoods (for paired fibrations, near on both sides and equal on
    one), never by `adjacent` calls, which stay the checker's. The step
    relation is symmetric, so the two directions list one relation, and
    the links to later points turn on the backtracker's look-ahead: on a
    loop, a first value that fits no section is dropped when it is
    chosen, not when the closing edge is reached. The section found is
    the one the earlier links alone give."""
    at = bits(piece)  # position -> product index
    k = len(at)
    pos = dict(zip(at, range(k)))
    nbrs = [[pos[v] for v in fib.product.neighbor_index[u] if v in pos]
            for u in at]

    pool = sorted(range(k), key=lambda i: (-len(nbrs[i]), i))
    order: list[int] = []
    step: dict[int, int] = {}  # point -> its position
    while pool:
        # max keeps the first of equals, so ties go by rank
        best = max(pool, key=lambda i: sum(j in step for j in nbrs[i]))
        step[best] = len(order)
        order.append(best)
        pool.remove(best)

    domains: list[list[Wedge]] = [None] * k  # type: ignore[list-item]
    for i in order:
        dom = list(itertools.islice(fib.fiber(at[i]), _FIBER_CAP + 1))
        if len(dom) > _FIBER_CAP:
            raise BudgetExhausted(
                f"fiber over {fib.product.points[at[i]]} exceeds "
                f"{_FIBER_CAP} wedges")
        if not dom:
            return None
        domains[i] = dom

    occupancy = [fib.occupancy(dom) for dom in domains]
    links = [[(step[j], occupancy[i].step_masks(domains[j]))
              for j in sorted(nbrs[i], key=step.__getitem__)] for i in order]
    found = next(backtrack([(1 << len(domains[i])) - 1 for i in order],
                           links), None)
    if found is None:
        return None
    return SectionWitness(tuple(at), tuple(domains[i][found[step[i]]]
                                           for i in range(k)))


def _require_surjective(fib: EndpointFibration) -> None:
    """Raise CoverImpossible when some endpoint tuple has an empty fiber:
    then no cover by section-admitting pieces exists at all."""
    ok, bad = fib.is_surjective()
    if not ok:
        why = (f" by arms of length {fib.m}; raise the arm length"
               if fib.reachable(bad) else
               ": its points lie in different components")
        raise CoverImpossible(f"endpoint tuple {fib.product.points[bad]} is "
                              f"unreachable{why}")


def schwarz_genus(fib: EndpointFibration,
                  ) -> tuple[int, tuple[SectionWitness, ...]]:
    """Exact minimum number of section-admitting pieces covering the
    product, with the section the cover search found over each piece,
    re-checked by `_certify`. Asks about every subset of the product that
    no section-admitting piece found so far contains, hence tiny bases
    only."""
    _require_surjective(fib)
    oracle = AdmissibilityOracle(
        fib.product, lambda piece: find_section(fib, piece))
    sets = minimal_cover_exact(fib.product, oracle)
    witnesses = tuple(oracle.witness(s) for s in sets)
    _certify(fib, witnesses, "sectional genus")
    return len(sets), witnesses


def constant_section(fib: EndpointFibration) -> SectionWitness:
    """The global section of e_1: stand still. Only exists for n = 1."""
    if fib.n != 1:
        raise ValueError("the constant-path section is an n=1 construction")
    pts = range(len(fib.product.points))
    return SectionWitness(tuple(pts), tuple(map(fib.constant_wedge, pts)))


# ---- the group construction ----

def _piece_track(base: DigitalImage, piece: int, end: int,
                 ) -> Optional[tuple[int, int, list[dict[int, int]]]]:
    """The shortest "retraction track" for one cover piece, a bitmask of
    base point indices: a nullhomotopy of its inclusion to a constant
    target, extended by a walk from the target to `end`. Returns (total
    steps, target, stages), least by (total, target); stages map point
    indices to point indices per tick.

    Every slide of the piece is a candidate; if none holds, one search
    runs to the constant at `end`. That search is shortest over every
    target too: a homotopy to the constant at c followed by the walk from
    c to `end` is a homotopy to the constant at `end`. None means the
    piece is not admissible at all."""
    incl = DigitalMap.inclusion_of(base, piece)
    keys, toward = incl.value_indices, base.step_toward(end)

    def to_track(w: HomotopyWitness) -> tuple[int, int, list]:
        target = q = w.end.value_indices[0]
        stages = [dict(zip(keys, st.value_indices)) for st in w.stages]
        while q != end:
            q = toward[q]
            stages.append(dict.fromkeys(keys, q))
        return (len(stages) - 1, target, stages)

    out = [to_track(w) for w in slides(incl)]
    if out:
        return min(out, key=lambda t: (t[0], t[1]))
    w = shortest_nullhomotopy(incl, {end})
    return None if w is None else to_track(w)


def tc_upper_via_group(base: DigitalImage, table: CayleyTable, n: int = 2,
                       cover: Sequence[Subset] | None = None,
                       m: int | None = None,
                       ) -> tuple[int, tuple[SectionWitness, ...], int]:
    """Upper bound on TC_n from a group structure: every categorical cover
    piece M of the base yields a piece {(g, g*m_1, ..., g*m_{n-1})} of the
    product with an explicit section — walk each coordinate back along the
    translated contraction of its M. Returns (piece count, certified
    witnesses, arm length used).

    The base must be connected and the table a verified topological group;
    an arm length below the longest piece's shortest track raises
    ArmTooShort, a ValueError.
    """
    if n < 2:
        raise ValueError("the group construction is for n >= 2")
    if not base.is_connected:
        raise ValueError("the construction needs a connected base")
    if table.image != base:
        raise ValueError("group table lives on a different carrier")
    verdict = is_topological_group(table)
    if not verdict.ok:
        raise ValueError("not a topological group: " + "; ".join(verdict.failures))

    if cover is None:
        cover = [p.points for p in cat_exact(base).pieces]
    pieces = list(map(base.mask, cover))
    if reduce(or_, pieces, 0) != (1 << len(base.points)) - 1:
        raise ValueError("supplied cover does not cover the base")

    tracks = []
    for s in pieces:
        track = _piece_track(base, s, table.identity_index)
        if track is None:
            raise ValueError(f"cover piece {base.points_of(s)} admits no "
                             f"contraction in the base; not a categorical "
                             f"cover")
        tracks.append(track)

    need = max(t[0] for t in tracks)
    if m is not None and m < need:
        raise ArmTooShort(f"arm length {m} is too short: the translation "
                          f"sections need at least {need}")
    m_used = need if m is None else m
    fib = EndpointFibration(base, n, m_used)
    size = len(base.points)
    pieces = list(map(bits, pieces))

    # per base point index x (its grid row) and cover piece: each
    # translated end x*mp with its arm as a 1-tuple, x times the piece's
    # track replayed back to mp (every track ends at the identity, so the
    # arm starts at x)
    translated = [
        [[(row[mp], (tuple(row[q] for q in _replay(track, mp, m_used)),))
          for mp in piece] for piece, (*_, track) in zip(pieces, tracks)]
        for row in table.grid]

    witnesses = []
    for combo in itertools.product(range(len(pieces)), repeat=n - 1):
        assign: dict[int, Wedge] = {}
        for x in range(size):
            # (product index, arms so far) in itertools.product order
            ends = [(x, ((x,) * (m_used + 1),))]
            for i in combo:
                ends = [(u * size + y, arms + arm) for u, arms in ends
                        for y, arm in translated[x][i]]
            for u, wedge in ends:
                assign.setdefault(u, wedge)
        witnesses.append(SectionWitness(*zip(*sorted(assign.items()))))
    _certify(fib, witnesses, "translation construction")
    return len(witnesses), tuple(witnesses), m_used


# ---- assembled bounds ----

def tc_n(base: DigitalImage, n: int, table: CayleyTable | None = None,
         cover: Sequence[Subset] | None = None, m: int | None = None, *,
         strong: bool = False) -> BoundResult:
    """Best available bracket on TC_n, exact when the routes meet.

    n = 1 is settled by the stand-still section, and a contractible base
    by one global section replaying its contraction, when the arm length
    allows it. Products within `covers.SWEEP_LIMIT` points get the exact
    sweep. Otherwise the bracket combines the category lower bound (past
    the limit, 2 when the base does not contract) with the
    group-construction upper bound when a table is supplied, which
    translates the supplied cover or else the minimum categorical cover
    behind the lower bound. A route without a cover, or one the arm
    length is too short for, is skipped with a note. A base within the
    limit under a larger product gets its exact category first, and at
    category 1 a slide of the whole image or else a shortest contraction.
    """
    if n < 1:
        raise ValueError("TC_n needs n >= 1")
    if m is not None and m < 0:
        raise ValueError("arm length cannot be negative")
    if not base.is_connected:
        raise ValueError("complexity here is for connected images")
    if m is not None:
        _require_surjective(EndpointFibration(base, n, m, strong=strong))
    if n == 1:
        fib = EndpointFibration(base, 1, m if m is not None else base.diameter,
                                strong=strong)
        sw = constant_section(fib)
        _certify(fib, (sw,), "standing-still section")
        return BoundResult(1, 1, (sw,),
                           ("standing still is a global plan over one piece",))

    notes: list[str] = []
    # the category asks about the whole image first: at category 1 its
    # witness is `contraction`'s first answer, kept if it is a slide
    cat_w = (cat_exact(base) if len(base.points)
             <= covers.SWEEP_LIMIT < len(base.points) ** n else None)
    w, lower = None, 1
    try:
        if cat_w is None:
            w = contraction(base)
            lower = 2 if w is None else 1  # no contraction: cat >= 2
        elif cat_w.size == 1 and cat_w.pieces[0].contraction.label == "slide":
            w = cat_w.pieces[0].contraction
        elif cat_w.size == 1:
            w = shortest_nullhomotopy(DigitalMap.identity(base),
                                      range(len(base.points)))
    except BudgetExhausted as err:
        notes.append(f"contractible-base route skipped, budget "
                     f"exhausted: {err}")
    if w is not None and m is not None and m < w.steps:
        notes.append(f"contractible-base route skipped: the contraction "
                     f"takes {w.steps} steps, more than the arm length {m}")
    elif w is not None:
        # every arm replays the contraction back from the collapse point
        m_used = w.steps if m is None else m
        fib = EndpointFibration(base, n, m_used, strong=strong)
        track = [st.value_indices for st in w.stages]
        pts = range(len(fib.product.points))
        sw = SectionWitness(tuple(pts), tuple(
            tuple(_replay(track, p, m_used) for p in fib.split(u))
            for u in pts))
        # proved for the pointwise relation only: a strong-mode candidate
        # that fails verification falls through to the next route
        if not strong:
            _certify(fib, (sw,), "contraction section")
        ok, why = verify_section(fib, sw) if strong else (True, None)
        if ok:
            return BoundResult(1, 1, (sw,),
                               (f"contractible base: one global section at "
                                f"arm length {m_used}",))
        notes.append(f"contractible-base route skipped: its section "
                     f"fails the strong relation: {why}")

    if len(base.points) ** n <= covers.SWEEP_LIMIT:
        fib = EndpointFibration(base, n, m if m is not None else base.diameter,
                                strong=strong)
        k, ws = schwarz_genus(fib)
        notes.append("exact sweep over the product")
        return BoundResult(k, k, ws, tuple(notes))

    upper, witness = None, None
    if cat_w is not None:
        lower = cat_w.size
        if cover is None:
            # the group route translates a minimum categorical cover: this one
            cover = tuple(p.points for p in cat_w.pieces)
        notes.append(f"lower {lower}: the category of the base is a lower "
                     f"bound for every TC_n, n >= 2")
    elif lower == 2:
        notes.append("lower 2: the base does not contract, so cat >= 2")
    elif w is not None:
        notes.append("lower 1: the base contracts, so cat = 1")
    else:
        notes.append("lower stays 1: base too large for the exact category")
    if table is None:
        notes.append("no group structure supplied, no upper route")
    elif strong:
        notes.append("group route unavailable: the translation construction "
                     "covers the pointwise relation only")
    elif cover is None:
        notes.append("group route unavailable: no cover past the sweep limit")
    else:
        try:
            upper, witness, m_used = tc_upper_via_group(
                base, table, n, cover, m)
            notes.append(f"upper {upper}: translation sections at arm "
                         f"length {m_used}")
        except ArmTooShort as err:
            notes.append(f"group route unavailable: {err}")
    return BoundResult(lower, upper, witness, tuple(notes))


def tc_chain(base: DigitalImage, up_to: int, table: CayleyTable | None = None,
             cover: Sequence[Subset] | None = None, m: int | None = None, *,
             strong: bool = False) -> list[BoundResult]:
    """TC_1 through TC_up_to, each lower bound raised to the one before it
    (TC never drops as n grows). Every finite upper bound is the one
    `tc_n` found, with its witness."""
    results: list[BoundResult] = []
    for k in range(1, up_to + 1):
        r = tc_n(base, k, table, cover, m, strong=strong)
        if results and results[-1].lower > r.lower:
            lower = results[-1].lower
            r = BoundResult(lower, r.upper, r.witness, r.notes + (
                f"lower raised to {lower}: TC never drops as n grows",))
        results.append(r)
    return results


def product_of_sections(pair: PairedFibration,
                        left_cover: Sequence[SectionWitness],
                        right_cover: Sequence[SectionWitness],
                        ) -> list[SectionWitness]:
    """Sections for the product fibration from sections of the factors.

    Every product of a left piece with a right piece gets the pairwise
    section; the results are certified from scratch rather than trusted.
    The list covers the product base whenever the inputs cover theirs,
    so its length witnesses genus(left x right) <= (pieces) <= any bound
    the caller wants to draw from the factor counts."""
    out, size = [], len(pair.right.product.points)
    for sl in left_cover:
        for sr in right_cover:
            piece = tuple(ul * size + ur for ul in sl.piece for ur in sr.piece)
            wedges = tuple((wl, wr) for wl in sl.wedges for wr in sr.wedges)
            out.append(SectionWitness(piece, wedges))
    _certify(pair, out, "product of sections")
    return out
