"""Group structures on digital images and their continuity.

A carrier image with a multiplication table is a topological group (for
its adjacency) when the group axioms hold, the multiplication is
continuous as a map from the min-product of the image with itself, and
inversion is continuous. A table is its grid of carrier indices, closed
by construction: a product outside the carrier is rejected where a table
is built from points. The other axioms are checked exhaustively with
explicit witnesses for every failure; continuity failures report the
first bad edge in canonical order.

Infinite groups (integers under addition and the like) are handled as
window checks: the axioms are taken as given globally, and continuity is
verified on a finite window. The operation and inversion are judged as
maps onto the image of their values under the window's adjacency, which
is defined on the whole lattice, so that operation values falling
outside the window are still compared honestly. Those verdicts, and a
finite table's inversion verdict, come from `maps.continuity_violation`.
A finite table's multiplication is judged by the normal-Cayley-graph
test (`_cayley_verdict`), which reads the carrier's own neighbour table
and builds no image of the carrier squared.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .images import (Adjacency, DigitalImage, Point, Record, Value,
                     induced_subimage, product_image)
from .maps import DigitalMap, backtrack, continuity_violation

# most carrier points enumerate_group_structures accepts: past 6 the cost
# is the list of candidate rows, filtered from all n! permutations
_ENUMERATION_LIMIT = 6


class CayleyTable(Value, key=("image", "identity_index", "grid")):
    """A binary operation on the points of an image, as its grid: per pair
    of carrier indices (a, b), the carrier index of a*b, so a table is
    closed by construction. `from_points` is the one constructor that
    takes points, and it checks them; the axioms are `verify_cayley`'s."""

    def __init__(self, image: DigitalImage, identity_index: int,
                 grid: tuple[tuple[int, ...], ...]):
        self.__dict__.update(image=image, identity_index=identity_index,
                             grid=grid)

    @staticmethod
    def from_points(image: DigitalImage, identity: Point,
                    entries: Sequence[Sequence[Point]]) -> "CayleyTable":
        """The table whose product of the i-th and j-th carrier points is
        entries[i][j], checked."""
        pts, index = image.points, image._index
        n = len(pts)
        rows = [[tuple(v) for v in row] for row in entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"table must be {n}x{n} over the carrier points")
        ident = tuple(identity)
        if ident not in index:
            raise ValueError(f"identity {ident} is not in the carrier")
        for a, row in zip(pts, rows):
            for b, v in zip(pts, row):
                if v not in index:
                    raise ValueError(f"{a} * {b} = {v} is outside the carrier")
        return CayleyTable(image, index[ident],
                           tuple(tuple(index[v] for v in row) for row in rows))

    @staticmethod
    def from_function(image: DigitalImage, op: Callable[[Point, Point], Point],
                      identity: Point) -> "CayleyTable":
        return CayleyTable.from_points(
            image, identity, [[op(a, b) for b in image.points]
                              for a in image.points])

    @property
    def identity(self) -> Point:
        return self.image.points[self.identity_index]

    @cached_property
    def entries(self) -> tuple[tuple[Point, ...], ...]:
        """The products as carrier points, for reports and files."""
        pts = self.image.points
        return tuple(tuple(pts[v] for v in row) for row in self.grid)

    def product(self, a: Point, b: Point) -> Point:
        index = self.image.index
        return self.image.points[self.grid[index(a)][index(b)]]

    @cached_property
    def inverse_indices(self) -> tuple[int, ...]:
        """Per carrier index, its two-sided inverse's index, or -1."""
        g, e = self.grid, self.identity_index
        return tuple(next((j for j, v in enumerate(row)
                           if v == e and g[j][i] == e), -1)
                     for i, row in enumerate(g))

    def inversion_map(self) -> DigitalMap:
        vals = self.inverse_indices
        if min(vals) < 0:
            raise ValueError(
                f"{self.image.points[vals.index(-1)]} has no inverse")
        return DigitalMap(self.image, self.image, vals)


def verify_cayley(table: CayleyTable) -> list[str]:
    """Exhaustive axiom check. Returns human-readable failures, each with
    its first witness; empty means the table is a group."""
    pts, g = table.image.points, table.grid
    e = table.identity_index
    failures: list[str] = []

    unit = next(((x, y) for a in range(len(pts)) for x, y in ((e, a), (a, e))
                 if g[x][y] != a), None)
    if unit is not None:
        x, y = unit
        failures.append(f"identity fails: {pts[x]} * {pts[y]} = "
                        f"{pts[g[x][y]]}")

    bad = _associativity_failure(g)
    if bad is not None:
        a, b, c = bad
        failures.append(
            f"not associative: ({pts[a]}*{pts[b]})*{pts[c]} = "
            f"{pts[g[g[a][b]][c]]} but {pts[a]}*({pts[b]}*{pts[c]}) = "
            f"{pts[g[a][g[b][c]]]}")
    elif -1 in table.inverse_indices:
        a = pts[table.inverse_indices.index(-1)]
        failures.append(f"no inverse: {a} has no two-sided inverse")
    return failures


class GroupVerdict(Value, key=("ok", "failures", "alpha_edge", "beta_edge")):
    def __init__(self, ok: bool, failures: tuple[str, ...],
                 alpha_edge: Optional[tuple[Point, Point]] = None,
                 beta_edge: Optional[tuple[Point, Point]] = None):
        self.__dict__.update(ok=ok, failures=failures, alpha_edge=alpha_edge,
                             beta_edge=beta_edge)


def is_topological_group(table: CayleyTable, *,
                         strong: bool = False) -> GroupVerdict:
    """Group axioms plus continuity of multiplication (on the min-product
    by default) and of inversion."""
    failures = verify_cayley(table)
    if failures:
        return GroupVerdict(False, tuple(failures))
    return _cayley_verdict(table, strong=strong)


def _cayley_verdict(table: CayleyTable, *, strong: bool) -> GroupVerdict:
    """Continuity of multiplication and inversion for a table known to be
    a group G, by |G|·|S| lookups, where S = N(e) is the identity's row:

    (1) each x's closed neighbourhood is {x} ∪ xS;
    (2) b⁻¹sb ∈ S for every b and every s ∈ S;
    (3) when strong, st ∈ S ∪ {e} for all s, t ∈ S.

    Multiplication from the min-product is continuous exactly when (1)
    and (2) hold, from the strong product exactly when (3) holds too, and
    then inversion is continuous: the carrier's graph is the Cayley graph
    Cay(G, S) with S closed under conjugation (Sabidussi, Proc. AMS 1958).

    Proof. A min-product edge changes one coordinate, so multiplication
    is continuous exactly when every L_a: x ↦ ax and R_b: x ↦ xb is. If
    they are, L_a has the continuous inverse L_a⁻¹, so it is a graph
    automorphism, and y ~ x exactly when x⁻¹y ~ e: (1). Given (1), an
    edge is x ~ xs with s ∈ S; L_a keeps it, and R_b sends it to xb and
    xb·b⁻¹sb, where b⁻¹sb ≠ e, so R_b keeps it exactly when b⁻¹sb ∈ S:
    (2). Strong edges add (a, b) ~ (as, bt) with s, t ∈ S, sent to ab
    and ab·(b⁻¹sb)t; by (2) b⁻¹sb runs over S with s, so given (1) and
    (2) they are kept exactly when (3) holds. Inversion: the graph is
    symmetric, so s⁻¹ ∈ S by (1) (s ~ e), and x ~ xs goes to x⁻¹ and
    s⁻¹x⁻¹ = x⁻¹·(xs⁻¹x⁻¹), with xs⁻¹x⁻¹ ∈ S by (2) for b = x⁻¹.

    Only a failing test looks for edges: multiplication's first torn edge
    in the canonical order of the carrier's square (`_torn_product_edge`)
    and inversion's by `maps.continuity_violation`, so the verdict names
    the edges that a scan of the square names."""
    g, e, inv = table.grid, table.identity_index, table.inverse_indices
    closed, s_row = table.image.closed_masks, table.image.neighbor_index[e]
    s_mask = closed[e] & ~(1 << e)
    if (all(closed[x] == sum(1 << row[s] for s in s_row) | 1 << x
            for x, row in enumerate(g))
            and all(s_mask >> g[g[inv[b]][s]][b] & 1
                    for b in range(len(g)) for s in s_row)
            and not (strong and any(not closed[e] >> g[s][t] & 1
                                    for s in s_row for t in s_row))):
        return GroupVerdict(True, ())
    failures, alpha_edge, pts = [], None, table.image.points
    torn = _torn_product_edge(table, strong=strong)
    if torn is not None:
        (a, b), (c, d) = torn
        alpha_edge = (pts[a] + pts[b], pts[c] + pts[d])
        failures.append(
            f"multiplication is not continuous: product points "
            f"{alpha_edge[0]} and {alpha_edge[1]} are adjacent but "
            f"{pts[g[a][b]]} and {pts[g[c][d]]} are not")
    inv_map = table.inversion_map()
    beta_edge = continuity_violation(inv_map)
    if beta_edge is not None:
        x, y = beta_edge
        failures.append(
            f"inversion is not continuous: {x} and {y} are adjacent but "
            f"{inv_map(x)} and {inv_map(y)} are not")
    return GroupVerdict(not failures, tuple(failures), alpha_edge, beta_edge)


def _torn_product_edge(table: CayleyTable, *, strong: bool,
                       ) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """The first edge ((a, b), (c, d)) of the carrier's square, min or
    strong, whose products are neither equal nor adjacent, in the square's
    canonical order, or None. The square's point (a, b) has the index
    a·n + b, so (a, b) runs row-major, and its edges to higher indices run
    to (a, b') for b' ∈ N(b) with b' > b, then to (a', b'') for a' ∈ N(a)
    with a' > a, where b'' = b, or when strong each b'' ∈ N[b] ascending."""
    g, nbrs = table.grid, table.image.neighbor_index
    closed = table.image.closed_masks
    stays = [sorted((b, *nb)) if strong else (b,) for b, nb in enumerate(nbrs)]
    for a, (row, na) in enumerate(zip(g, nbrs)):
        ups = [c for c in na if c > a]
        for b, nb in enumerate(nbrs):
            near = closed[row[b]]
            for c, d in itertools.chain(
                    ((a, d) for d in nb if d > b),
                    ((c, d) for c in ups for d in stays[b])):
                if not near >> g[c][d] & 1:
                    return (a, b), (c, d)
    return None


# ---- enumeration ----

def _semiregular(p: tuple[int, ...]) -> bool:
    """Whether all cycles of the permutation p have one length (one pass)."""
    seen, lengths = set(), set()
    for a in range(len(p)):
        if a not in seen:
            b, k = p[a], 1
            while b != a:
                seen.add(b)
                b, k = p[b], k + 1
            lengths.add(k)
    return len(lengths) < 2


def _fits(p: tuple[int, ...], q: tuple[int, ...],
          semiregular: set[tuple[int, ...]]) -> bool:
    """Whether rows p and q may share a table: they differ in every column
    and p∘q is semiregular (then so is q∘p, its conjugate by p)."""
    return (all(map(int.__ne__, p, q))
            and tuple(p[x] for x in q) in semiregular)


def _fit_masks(n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The semiregular permutations of range(n) but the identity, in
    lexicographic order, and per row the bitmask of the rows fitting it.

    Conjugation by any g keeps `_fits`: g∘p∘g⁻¹ and g∘q∘g⁻¹ differ where p
    and q do, and compose to the conjugate of p∘q. Semiregular rows of one
    cycle length are conjugate, so only the first row of each length is
    tested against every row; each other row conjugates its fitting rows
    by a g that maps its cycles onto theirs."""
    semi = [p for p in itertools.permutations(range(n)) if _semiregular(p)]
    rows, semiregular = semi[1:], set(semi)
    index = {p: k for k, p in enumerate(rows)}
    fitting: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    masks = []
    for r in rows:
        cycles: list[int] = []  # r's points, cycle by cycle from least ones
        for a in range(n):
            while a not in cycles:
                cycles.append(a)
                a = r[a]
        length = cycles.index(r.index(0)) + 1  # r⁻¹(0) closes 0's cycle
        if length not in fitting:
            fitting[length] = cycles, [q for q in rows
                                       if _fits(r, q, semiregular)]
        order, fit = fitting[length]
        g, back = dict(zip(order, cycles)), dict(zip(cycles, order))
        masks.append(sum(1 << index[tuple(g[q[back[y]]] for y in range(n))]
                         for q in fit))
    return rows, masks


def enumerate_group_structures(image: DigitalImage) -> Iterator[CayleyTable]:
    """Every group structure on the carrier's point set, as Cayley tables.

    A table's rows, its left translations L_a (L_a∘L_b = L_ab), form a
    regular subgroup R of Sym(n): one row sends e to each a. One
    `maps.backtrack` search finds every R, as rows a = 1..n-1 of a table
    with identity 0: values the semiregular permutations but the
    identity (L_a has all its cycles of length ord(a)), row a rooted at
    those sending 0 to a and linked to the earlier rows by `_fit_masks`.
    That is necessary only, so Light's test decides. Each identity e
    re-indexes each R (Cayley; Sabidussi, Proc. AMS 1958) as a·b =
    r_a(b), where r_a(e) = a, with no axiom check: r_a∘r_b is in R and
    sends e to a·b, so it is r_ab and (a·b)·c = a·(b·c); r_e fixes e, so
    it is the identity, and e·b = b, a·e = a; every table with identity
    e arises so, its L_a being the r_a of its own R. Order: by identity,
    then lexicographic over rows. Limited to _ENUMERATION_LIMIT points."""
    n = len(image.points)
    if n > _ENUMERATION_LIMIT:
        raise ValueError(f"group enumeration is limited to "
                         f"{_ENUMERATION_LIMIT} points, carrier has {n}")
    rows, masks = _fit_masks(n)
    links = [[(s, masks) for s in range(t)] for t in range(n - 1)]
    roots = [sum(1 << k for k, p in enumerate(rows) if p[0] == a)
             for a in range(1, n)]
    subgroups = list(filter(_is_associative, (
        (tuple(range(n)), *(rows[k] for k in values))
        for values in backtrack(roots, links))))
    for e in range(n):
        for grid in sorted(tuple(sorted(r, key=lambda row: row[e]))
                           for r in subgroups):
            yield CayleyTable(image, e, grid)


def _associativity_failure(grid: Sequence[Sequence[int]],
                           ) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc) in a
    closed index grid, or None: scanned only when Light's test fails."""
    n = len(grid)
    return None if _is_associative(grid) else _triple_failure(grid, range(n))


def _is_associative(grid: Sequence[Sequence[int]]) -> bool:
    """Light's test on a closed index grid. The b with (ab)c = a(bc) for
    all a, c are closed under the product: if b and d pass, then
    (a(bd))c = ((ab)d)c = (ab)(dc) = a(b(dc)) = a((bd)c). So it suffices
    to test generators, taken greedily in index order, each one not
    reached from those before it by right multiplications by them."""
    generators: list[int] = []
    reached: set[int] = set()
    for b in range(len(grid)):
        if b not in reached:
            if _triple_failure(grid, [b]) is not None:
                return False
            generators.append(b)
            reached, todo = set(), list(generators)
            while todo:
                x = todo.pop()
                if x not in reached:
                    reached.add(x)
                    todo += [grid[x][g] for g in generators]
    return True


def _triple_failure(grid: Sequence[Sequence[int]], middles: Sequence[int],
                    ) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in lexicographic order with b in `middles` and
    (ab)c != a(bc) in a closed index grid, or None."""
    n = len(grid)
    for a in range(n):
        ga = grid[a]
        for b in middles:
            gab = grid[ga[b]]
            gb = grid[b]
            for c in range(n):
                if gab[c] != ga[gb[c]]:
                    return a, b, c
    return None


class ScanResult(Record):
    # `rejected` holds (identity, verdict) of each rejected structure, in
    # enumeration order; the tables themselves are not kept
    def __init__(self, image: DigitalImage, total: int,
                 topological: tuple[CayleyTable, ...],
                 rejected: tuple[tuple[Point, GroupVerdict], ...]):
        self.__dict__.update(image=image, total=total,
                             topological=topological, rejected=rejected)

    @property
    def topological_count(self) -> int:
        return len(self.topological)


def scan_group_structures(image: DigitalImage, *,
                          strong: bool = False) -> ScanResult:
    """Enumerate all group structures and test each for continuity."""
    good = []
    bad = []
    total = 0
    for table in enumerate_group_structures(image):
        total += 1
        verdict = _cayley_verdict(table, strong=strong)
        if verdict.ok:
            good.append(table)
        else:
            bad.append((table.identity, verdict))
    return ScanResult(image, total, tuple(good), tuple(bad))


# ---- derived structures ----

def product_group(a: CayleyTable, b: CayleyTable, *,
                  strong: bool = False) -> CayleyTable:
    """Componentwise product structure on the product image, whose points
    run row-major over (a index, b index): with k points in b's carrier,
    the pair (x, y) has the index x·k + y."""
    prod = product_image(a.image, b.image, strong=strong)
    k = len(b.image.points)
    grid = tuple(tuple(x * k + y for x in ra for y in rb)
                 for ra in a.grid for rb in b.grid)
    return CayleyTable(prod, a.identity_index * k + b.identity_index, grid)


def subgroup_check(table: CayleyTable, subset: Sequence[Point],
                   ) -> tuple[bool, str | None]:
    """Is the subset closed under products and inverses, with the identity?"""
    sub = {tuple(p) for p in subset}
    for p in sub:
        if p not in table.image:
            return False, f"{p} is not in the carrier"
    pts, g = table.image.points, table.grid
    ks = sorted(map(table.image.index, sub))  # in point order
    inside = set(ks)
    if table.identity_index not in inside:
        return False, f"identity {table.identity} is missing"
    for a in ks:
        for b in ks:
            if g[a][b] not in inside:
                return False, (f"not closed: {pts[a]} * {pts[b]} = "
                               f"{pts[g[a][b]]}")
    for a in ks:
        if table.inverse_indices[a] not in inside:
            return False, f"no inverse inside the subset for {pts[a]}"
    return True, None


# ---- homomorphisms ----

def is_group_homomorphism(f: DigitalMap, dom: CayleyTable, cod: CayleyTable,
                          ) -> tuple[bool, str | None]:
    if f.domain != dom.image or f.codomain != cod.image:
        raise ValueError("map does not connect the two carriers")
    pts, cpts, fv = dom.image.points, cod.image.points, f.value_indices
    for a, row in enumerate(dom.grid):
        for b, ab in enumerate(row):
            lhs, rhs = fv[ab], cod.grid[fv[a]][fv[b]]
            if lhs != rhs:
                return False, (f"f({pts[a]} * {pts[b]}) = {cpts[lhs]} but "
                               f"f({pts[a]}) * f({pts[b]}) = {cpts[rhs]}")
    return True, None


def is_top_homomorphism(f: DigitalMap, dom: CayleyTable, cod: CayleyTable,
                        ) -> tuple[bool, str | None]:
    ok, why = is_group_homomorphism(f, dom, cod)
    if not ok:
        return False, why
    bad = continuity_violation(f)
    if bad is not None:
        return False, f"not continuous at edge {bad}"
    return True, None


def isomorphism_failure(f: DigitalMap,
                        ) -> tuple[Optional[str], Optional[tuple[Point, Point]]]:
    """Why a continuous homomorphism f is no topological isomorphism, or
    None when it is one, with the edge where the inverse of a bijective f
    tears, or None."""
    if not f.is_bijective():
        return "not bijective", None
    bad = continuity_violation(f.inverse())
    if bad is not None:
        return f"inverse not continuous at edge {bad}", bad
    return None, None


def is_top_isomorphism(f: DigitalMap, dom: CayleyTable, cod: CayleyTable,
                       ) -> tuple[bool, str | None]:
    ok, why = is_top_homomorphism(f, dom, cod)
    if ok:
        why, _ = isomorphism_failure(f)
    return why is None, why


# ---- window checks for infinite groups ----

class WindowGroup(Record):
    """A finite window onto a group with an infinite carrier. The axioms
    are assumed to hold globally (they are standard algebra); what gets
    verified digitally is continuity over the window.

    Operation values may land outside the window. The window's adjacency
    is defined on the whole ambient lattice, so it judges them too.
    """

    def __init__(self, window: DigitalImage,
                 op: Callable[[Point, Point], Point],
                 inv: Callable[[Point], Optional[Point]], identity: Point,
                 label: str):
        self.__dict__.update(window=window, op=op, inv=inv, identity=identity,
                             label=label)


class WindowReport(Record):
    def __init__(self, label: str, alpha_checked: int,
                 alpha_violation: Optional[tuple[Point, Point]],
                 beta_checked: int, beta_skipped: int,
                 beta_violation: Optional[tuple[Point, Point]],
                 inverse_missing: tuple[Point, ...], notes: tuple[str, ...]):
        self.__dict__.update(
            label=label, alpha_checked=alpha_checked,
            alpha_violation=alpha_violation, beta_checked=beta_checked,
            beta_skipped=beta_skipped, beta_violation=beta_violation,
            inverse_missing=inverse_missing, notes=notes)

    @property
    def ok_on_window(self) -> bool:
        return (self.alpha_violation is None and self.beta_violation is None
                and not self.inverse_missing)


def _onto_values(domain: DigitalImage, fn: Callable[[Point], Point],
                 adjacency: Adjacency) -> DigitalMap:
    """fn on the domain's points as a map onto the image of its values
    under `adjacency`, which may reach past any window."""
    vals = [tuple(fn(p)) for p in domain.points]
    cod = DigitalImage(vals, adjacency)
    return DigitalMap(domain, cod, tuple(map(cod.index, vals)))


def window_group_report(wg: WindowGroup, *,
                        strong: bool = False) -> WindowReport:
    """Continuity of the operation and inversion over one finite window.

    Each is judged as a map onto the image of its values under the
    window's adjacency, so values that land outside the window are
    compared too: that is how a sum like 3+5=8 can still convict a
    discontinuity even when 8 is not a window point. Inversion is judged
    on the points that have an inverse. Points with no inverse at all
    (not merely an inverse outside the window) are collected separately;
    that is an honest axiom failure."""
    img = wg.window
    d = img.dim
    prod = product_image(img, img, strong=strong)
    alpha_violation = continuity_violation(_onto_values(
        prod, lambda u: wg.op(u[:d], u[d:]), img.adjacency))

    missing = [p for p in img.points if wg.inv(p) is None]
    beta_checked = 0
    beta_violation = None
    if len(missing) < len(img.points):
        sub = induced_subimage(img, set(img.points) - set(missing))
        beta_checked = len(sub.edge_index_pairs)
        beta_violation = continuity_violation(
            _onto_values(sub, wg.inv, img.adjacency))
    beta_skipped = len(img.edge_index_pairs) - beta_checked

    notes = ["axioms assumed globally; continuity judged by the ambient adjacency law"]
    if beta_skipped:
        notes.append(f"{beta_skipped} edge(s) skipped where an inverse is unavailable")
    return WindowReport(
        wg.label, len(prod.edge_index_pairs), alpha_violation,
        beta_checked, beta_skipped, beta_violation,
        tuple(missing), tuple(notes))


def window_alpha_pair(wg: WindowGroup, u: Point, v: Point, *,
                      strong: bool = False) -> tuple[bool, Point, Point, bool]:
    """Judge one candidate pair of product points under the operation.

    Returns (is_edge, op(u), op(v), images_close).  Useful for pinning a
    specific counterexample: the pair is checked on its own, independent
    of which violation a full report happens to meet first."""
    img = wg.window
    d = img.dim
    prod = product_image(img, img, strong=strong)
    u, v = tuple(u), tuple(v)
    is_edge = prod.adjacency.adjacent(u, v)
    pu = tuple(wg.op(u[:d], u[d:]))
    pv = tuple(wg.op(v[:d], v[d:]))
    return is_edge, pu, pv, pu == pv or img.adjacency.adjacent(pu, pv)


class WindowHomReport(Record):
    """Verdict for a map between window groups, checked over the source
    window: does it respect the operations, is it continuous edge by
    edge, and is it injective on the window."""

    def __init__(self, pairs_checked: int,
                 algebra_violation: Optional[tuple[Point, Point]],
                 edges_checked: int,
                 continuity_violation: Optional[tuple[Point, Point]],
                 collision: Optional[tuple[Point, Point]]):
        self.__dict__.update(
            pairs_checked=pairs_checked, algebra_violation=algebra_violation,
            edges_checked=edges_checked,
            continuity_violation=continuity_violation, collision=collision)

    @property
    def is_homomorphism(self) -> bool:
        return self.algebra_violation is None and self.continuity_violation is None

    @property
    def injective_on_window(self) -> bool:
        return self.collision is None


def window_hom_report(src: WindowGroup, dst: WindowGroup,
                      fmap: Callable[[Point], Point]) -> WindowHomReport:
    """Check a candidate homomorphism between two window groups.

    The operation identity f(a*b) = f(a)*f(b) is evaluated with the
    global operations, so no pair needs skipping unless either side's
    operation is partial.  Continuity of f is judged as a map onto the
    image of its values under the destination window's adjacency."""
    img = src.window
    pairs_checked = 0
    algebra_violation = None
    for a in img.points:
        for b in img.points:
            lhs = tuple(fmap(tuple(src.op(a, b))))
            rhs = tuple(dst.op(tuple(fmap(a)), tuple(fmap(b))))
            pairs_checked += 1
            if lhs != rhs and algebra_violation is None:
                algebra_violation = (a, b)
    f = _onto_values(img, fmap, dst.window.adjacency)
    collision = None
    seen: dict[int, Point] = {}
    for p, v in zip(img.points, f.value_indices):
        if v in seen:
            collision = (seen[v], p)
            break
        seen[v] = p
    return WindowHomReport(pairs_checked, algebra_violation,
                           len(img.edge_index_pairs), continuity_violation(f),
                           collision)
