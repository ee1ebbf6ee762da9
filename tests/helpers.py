"""Shared builders and independent oracles used across the test modules.

The oracles here deliberately re-derive answers by a different route than
the library (union-find instead of BFS, transfer matrices instead of
backtracking, connected subsets instead of edges) so that agreement
actually means something. The rest are conveniences only tests need.
"""

from __future__ import annotations

import inspect
import itertools
import random
from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from ditop.category import cat_oracle
from ditop.complexity import SectionWitness
from ditop.covers import AdmissibilityOracle, Subset, maximal_admissible_sets
from ditop.corpus import (cycle_image, loop_cover, loop_image,
                          loop_rotation_table)
from ditop.groups import CayleyTable
from ditop.homotopy import (BudgetExhausted, HomotopyWitness, MapGraph,
                            fold, is_contractible, nullhomotopy, pull_back,
                            shortest_nullhomotopy, slide_nullhomotopy,
                            verify_homotopy)
from ditop.images import (CK, DigitalImage, Explicit, Point, ProductAdjacency,
                          induced_subimage)
from ditop.maps import DigitalMap, backtrack, continuity_violation
from ditop.pathspace import PairedWedge


def naive_components(points, edges) -> list[frozenset]:
    """Connected components by union-find, no BFS involved."""
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[Point, set] = {}
    for p in points:
        groups.setdefault(find(p), set()).add(p)
    return [frozenset(g) for g in groups.values()]


def literal_ck_adjacent(p, q, k) -> bool:
    """The c_k definition transcribed directly: distinct points, every
    coordinate within 1, and between 1 and k coordinates actually moving."""
    if p == q:
        return False
    diffs = [abs(a - b) for a, b in zip(p, q)]
    if any(d > 1 for d in diffs):
        return False
    moved = sum(1 for d in diffs if d == 1)
    return 1 <= moved <= k


def transfer_matrix_count(n: int) -> int:
    """Closed walks of length n in the reflexive n-cycle, by integer
    matrix powers. Counts the continuous self-maps of a digital n-cycle."""
    size = n

    def mat_mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(size))
                 for j in range(size)] for i in range(size)]

    step = [[1 if (i == j or (i - j) % size in (1, size - 1)) else 0
             for j in range(size)] for i in range(size)]
    acc = step
    for _ in range(n - 1):
        acc = mat_mul(acc, step)
    return sum(acc[i][i] for i in range(size))


def field_names(cls: type) -> list[str]:
    """A record class's fields: its constructor's parameters, in order."""
    return list(inspect.signature(vars(cls)["__init__"]).parameters)[1:]


def random_grid_image(rng: random.Random, max_points: int = 9,
                      k: int = 1, connected: bool = True) -> DigitalImage:
    """A random subset of a 3x3 box under c_k, resampled until connected."""
    box = [(x, y) for x in range(3) for y in range(3)]
    while True:
        count = rng.randint(1, max_points)
        pts = tuple(sorted(rng.sample(box, count)))
        img = DigitalImage(pts, CK(k))
        if not connected or img.is_connected:
            return img


def random_explicit_image(rng: random.Random, max_points: int = 6) -> DigitalImage:
    """A random 1-dimensional point set with random explicit edges."""
    n = rng.randint(1, max_points)
    pts = tuple((i,) for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                pairs.append(((i,), (j,)))
    return DigitalImage(pts, Explicit.of(pairs))


def random_map_values(rng: random.Random, dom: DigitalImage,
                      cod: DigitalImage) -> tuple[Point, ...]:
    return tuple(rng.choice(cod.points) for _ in dom.points)


def plane_isometry(rng: random.Random):
    """A random c1-isomorphism of Z^2: swap axes or not, flip signs, shift."""
    swap = rng.random() < 0.5
    sx = rng.choice((1, -1))
    sy = rng.choice((1, -1))
    ax = rng.randint(-3, 3)
    ay = rng.randint(-3, 3)

    def move(p):
        x, y = p
        if swap:
            x, y = y, x
        return (sx * x + ax, sy * y + ay)

    return move


def loop_bundle():
    """The loop, its group, and the preferred categorical cover."""
    return loop_image(), loop_rotation_table(), loop_cover()


def cycle_rotation_table(n: int) -> CayleyTable:
    """The rotation group of `cycle_image(n)`: positions along the cycle,
    walked from its first point, add mod n."""
    img = cycle_image(n)
    walk = [0]
    while len(walk) < n:
        walk.append(next(j for j in img.neighbor_index[walk[-1]]
                         if j not in walk[-2:]))
    pts = [img.points[i] for i in walk]
    at = {p: k for k, p in enumerate(pts)}
    return CayleyTable.from_function(
        img, lambda a, b: pts[(at[a] + at[b]) % n], pts[0])


def neighbors(img: DigitalImage, p: Point) -> tuple[Point, ...]:
    """The neighbours of p in the image, as points, in index order."""
    return tuple(img.points[j] for j in img.neighbor_index[img.index(p)])


def lex_shortest_path(img: DigitalImage, a: Point, b: Point,
                      ) -> tuple[Point, ...]:
    """The lexicographically least shortest path from a to b, along the
    image's `step_toward(b)`; raises when b is unreachable from a."""
    i, j = img.index(a), img.index(b)
    step = img.step_toward(j)
    if step[i] < 0:
        raise ValueError(f"no path from {a} to {b}")
    path = [i]
    while path[-1] != j:
        path.append(step[path[-1]])
    return tuple(img.points[v] for v in path)


def paths_between_oracle(img: DigitalImage, start: Point, end: Point,
                         length: int) -> Iterator[tuple[Point, ...]]:
    """The recursive walker `pathspace.paths_between` replaced: extend the
    walk by the sorted closed neighbourhood of its last point, pruning a
    prefix whose last point is farther from the end than the steps left."""
    dist, idx = img.distance_matrix, img.index
    ei = idx(end)
    prefix = [tuple(start)]

    def extend() -> Iterator[tuple[Point, ...]]:
        here = prefix[-1]
        remaining = length - (len(prefix) - 1)
        d = dist[idx(here)][ei]
        if d < 0 or d > remaining:
            return
        if remaining == 0:
            yield tuple(prefix)
            return
        for q in sorted((here,) + neighbors(img, here)):
            prefix.append(q)
            yield from extend()
            prefix.pop()

    if length >= 0:
        yield from extend()


def endpoint_fiber_oracle(fib, u: int) -> Iterator[tuple]:
    """`EndpointFibration.fiber` by the recursive walker: every start in
    point order, the product of its arms' walks (empty when a walk is),
    read off the point of product index u and indexed afterwards."""
    point, d, index = fib.product.points[u], fib.base.dim, fib.base.index
    parts = [point[k:k + d] for k in range(0, len(point), d)]
    for s in fib.base.points:
        yield from itertools.product(*(
            [tuple(map(index, walk))
             for walk in paths_between_oracle(fib.base, s, p, fib.m)]
            for p in parts))


def paired_fiber_oracle(pair, u: int) -> Iterator[tuple]:
    """`PairedFibration.fiber` as the left-major product of the two
    oracle fibers, over the two halves of the point of index u."""
    point = pair.product.points[u]
    cut = pair.left.base.dim * pair.left.n
    ul = pair.left.product.index(point[:cut])
    ur = pair.right.product.index(point[cut:])
    rights = list(endpoint_fiber_oracle(pair.right, ur))
    for wl in endpoint_fiber_oracle(pair.left, ul):
        for wr in rights:
            yield wl, wr


def group_inverse(table: CayleyTable, a: Point) -> Optional[Point]:
    """The two-sided inverse of a, or None."""
    j = table.inverse_indices[table.image.index(a)]
    return None if j < 0 else table.image.points[j]


def left_translation(table: CayleyTable, g: Point) -> DigitalMap:
    vals = tuple(table.product(g, p) for p in table.image.points)
    return DigitalMap.from_points(table.image, table.image, vals)


def count_paths(img: DigitalImage, start: Point, end: Point, length: int) -> int:
    """Path count by dynamic programming (independent of the generator)."""
    start, end = tuple(start), tuple(end)
    n = len(img.points)
    idx = img.index
    row = [0] * n
    row[idx(start)] = 1
    for _ in range(length):
        nxt = [0] * n
        for i, c in enumerate(row):
            if not c:
                continue
            nxt[i] += c
            for j in img.neighbor_index[i]:
                nxt[j] += c
        row = nxt
    return row[idx(end)]


# ---- maps ----

def continuous_maps(domain: DigitalImage,
                    codomain: DigitalImage) -> Iterator[DigitalMap]:
    """All continuous maps domain -> codomain in lexicographic value order."""
    graph = MapGraph(domain, codomain)
    return (graph.map_of(s) for s in all_states(graph))


def all_states(graph: MapGraph) -> Iterator[tuple[int, ...]]:
    """Every continuous state of the map graph, that is every continuous
    map, in lexicographic index order (the former `MapGraph.all_states`)."""
    return backtrack([(1 << len(graph.codomain.points)) - 1]
                     * len(graph.domain.points), graph.links)


def is_continuous_subset_oracle(f: DigitalMap, guard: int = 12) -> bool:
    """Continuity by the subset definition: every connected subset of the
    domain must have a connected image. Exhaustive, for domains up to guard
    points; an independent check on the edge characterization."""
    n = len(f.domain.points)
    if n > guard:
        raise ValueError(f"subset oracle is limited to {guard} points, image has {n}")

    dom_nbr_mask = _neighbor_masks(f.domain)
    cod_nbr_mask = _neighbor_masks(f.codomain)
    val_ix = f.value_indices

    for mask in range(1, 1 << n):
        if not _mask_connected(mask, dom_nbr_mask):
            continue
        img_mask = 0
        m = mask
        while m:
            b = m & -m
            img_mask |= 1 << val_ix[b.bit_length() - 1]
            m ^= b
        if not _mask_connected(img_mask, cod_nbr_mask):
            return False
    return True


def _neighbor_masks(img: DigitalImage) -> list[int]:
    out = []
    for nbrs in img.neighbor_index:
        m = 0
        for j in nbrs:
            m |= 1 << j
        out.append(m)
    return out


def _mask_connected(mask: int, nbr_mask: list[int]) -> bool:
    first = mask & -mask
    seen = first
    frontier = first
    while frontier:
        grow = 0
        m = frontier
        while m:
            b = m & -m
            grow |= nbr_mask[b.bit_length() - 1]
            m ^= b
        frontier = grow & mask & ~seen
        seen |= frontier
    return seen == mask


def is_digital_isomorphism(f: DigitalMap) -> tuple[bool, str | None]:
    """Bijective, continuous, with continuous inverse."""
    if not f.is_bijective():
        return False, "not bijective"
    bad = continuity_violation(f)
    if bad is not None:
        return False, f"not continuous at edge {bad}"
    bad = continuity_violation(f.inverse())
    if bad is not None:
        return False, f"inverse not continuous at edge {bad}"
    return True, None


def automorphisms_oracle(img: DigitalImage) -> set[tuple[int, ...]]:
    """Aut(X) by brute force: every permutation of the point indices,
    kept when `is_digital_isomorphism` accepts it as a self-map. A
    permutation that sends some edge off the edges is not one, so that
    cheap test runs first and the full check sees only the rest."""
    closed = img.closed_masks
    edges = img.edge_index_pairs
    out = set()
    for perm in itertools.permutations(range(len(img.points))):
        if all(closed[perm[i]] >> perm[j] & 1 for i, j in edges) \
                and is_digital_isomorphism(DigitalMap(img, img, perm))[0]:
            out.add(perm)
    return out


def find_isomorphism(x: DigitalImage, y: DigitalImage,
                     guard: int = 16) -> DigitalMap | None:
    """Search for a digital isomorphism x -> y (backtracking, small images).

    Deterministic: domain points are assigned in canonical order, candidate
    targets tried in canonical order.
    """
    n = len(x.points)
    if n != len(y.points):
        return None
    if n > guard:
        raise ValueError(f"isomorphism search is limited to {guard} points")
    if sorted(len(v) for v in x.neighbor_index) != sorted(len(v) for v in y.neighbor_index):
        return None

    xn = x.neighbor_index
    ydeg = [len(v) for v in y.neighbor_index]
    yadj = [set(v) for v in y.neighbor_index]
    assign = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        di = len(xn[i])
        for t in range(n):
            if used[t] or ydeg[t] != di:
                continue
            ok = True
            for j, tj in ((j, assign[j]) for j in range(i)):
                want = j in xn[i] or i in xn[j]
                if want != (tj in yadj[t]):
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = t
            used[t] = True
            if extend(i + 1):
                return True
            used[t] = False
            assign[i] = -1
        return False

    if not extend(0):
        return None
    vals = tuple(y.points[assign[i]] for i in range(n))
    return DigitalMap.from_points(x, y, vals)


# ---- homotopy ----

def restrict_witness(w: HomotopyWitness, subset: Iterable[Point]) -> HomotopyWitness:
    """Restrict every stage to an induced subimage of the domain."""
    sub = induced_subimage(w.stages[0].domain, subset)
    return HomotopyWitness(tuple(
        DigitalMap.from_points(sub, st.codomain,
                               tuple(st(p) for p in sub.points))
        for st in w.stages), w.label)


def unfolded_nullhomotopy(f: DigitalMap,
                          targets: Sequence[Point] | None = None,
                          node_budget: int | None = 2_000_000,
                          ) -> Optional[HomotopyWitness]:
    """The slide-then-search route without folding: slides target by
    target, then a breadth-first search of f's own map graph aimed at
    every requested constant. The folded route must agree with it."""
    cod = f.codomain
    pool = tuple(tuple(t) for t in targets) if targets is not None else cod.points
    for t in pool:
        w = slide_nullhomotopy(f, cod.index(t))
        if w is not None:
            return w
    return shortest_nullhomotopy_oracle(f, {cod.index(t) for t in pool},
                                        node_budget)


# ---- the map-graph search that tested each state on arrival ----

def bfs_oracle(graph: MapGraph, start: tuple[int, ...], is_goal,
               node_budget: int | None = 2_000_000):
    """Breadth-first search from `start` to the first state satisfying
    `is_goal`, each state tested when it is discovered (the former
    `MapGraph.bfs`). Returns (goal, parents), the form `MapGraph.witness`
    reads, or None when the component holds no goal."""
    parents: dict = {start: None}
    if is_goal(start):
        return start, parents
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in graph.neighbor_states(cur):
            if nxt in parents:
                continue
            parents[nxt] = cur
            if is_goal(nxt):
                return nxt, parents
            if node_budget is not None and len(parents) > node_budget:
                raise BudgetExhausted(
                    f"map-graph search exceeded {node_budget} states")
            queue.append(nxt)
    return None


def shortest_nullhomotopy_oracle(f: DigitalMap, allowed,
                                 node_budget: int | None = 2_000_000,
                                 ) -> Optional[HomotopyWitness]:
    """`shortest_nullhomotopy` by `bfs_oracle`."""
    graph = MapGraph(f.domain, f.codomain)

    def at_constant(s: tuple[int, ...]) -> bool:
        first = s[0]
        return first in allowed and all(v == first for v in s)

    return graph.witness(bfs_oracle(graph, f.value_indices, at_constant,
                                    node_budget))


def are_homotopic_oracle(f: DigitalMap, g: DigitalMap,
                         ) -> Optional[HomotopyWitness]:
    """`are_homotopic` by `bfs_oracle`."""
    graph = MapGraph(f.domain, f.codomain)
    return graph.witness(bfs_oracle(graph, f.value_indices,
                                    lambda s: s == g.value_indices))


def record_search_states(monkeypatch) -> list[int]:
    """Wrap `MapGraph.bfs` so that every search appends the number of
    states that arrived in it, each of which meets the goal test once,
    counted apart from the budget ledger."""
    sizes: list[int] = []
    bfs = MapGraph.bfs

    def counting(graph, start, goal_near):
        def seeing(s):
            sizes[-1] += 1
            return goal_near(s)

        sizes.append(0)
        return bfs(graph, start, seeing)

    monkeypatch.setattr(MapGraph, "bfs", counting)
    return sizes


def unsplit_folded_nullhomotopy(f: DigitalMap) -> Optional[HomotopyWitness]:
    """The folded search without the split into components: one search of
    the map graph from f on its domain's core, retracted into its
    codomain's core, to any constant. On a disconnected core that graph
    is the product of the components' graphs. Returns the core homotopy."""
    dom_fold, cod_fold = fold(f.domain), fold(f.codomain)
    r = DigitalMap(f.codomain, f.codomain, cod_fold.retractions()[-1])
    core, target = dom_fold.core, cod_fold.core
    on_core = DigitalMap.from_points(core, target,
                                     tuple(r(f(a)) for a in core.points))
    return shortest_nullhomotopy(on_core, range(len(target.points)))


def per_target_piece_track(base: DigitalImage, piece: Sequence[Point],
                           end: Point, node_budget: int | None = 2_000_000,
                           ) -> Optional[tuple[int, Point]]:
    """The group route's piece track, target by target: for each base
    point c, a nullhomotopy of the piece's inclusion aimed at c alone,
    then the walk from c to `end`. Returns the least (total steps, c), or
    None when no target is reached. The one search to the constant at
    `end` in `complexity._piece_track` must give the same total."""
    incl = DigitalMap.inclusion(induced_subimage(base, piece), base)
    out = []
    for c in base.points:
        w = unfolded_nullhomotopy(incl, targets=(c,), node_budget=node_budget)
        if w is not None:
            out.append((w.steps + len(lex_shortest_path(base, c, end)) - 1, c))
    return min(out, default=None)


def point_walk_slide_nullhomotopy(f: DigitalMap, target: Point,
                                  ) -> Optional[HomotopyWitness]:
    """`homotopy.slide_nullhomotopy` on points: every value walks its own
    `lex_shortest_path` to the target, one step per stage, and each stage
    is rebuilt from points. The index walk must give the same stages."""
    cod = f.codomain
    target = tuple(target)
    if target not in cod:
        return None
    try:
        paths = [lex_shortest_path(cod, v, target) for v in f.values]
    except ValueError:
        return None  # some value cannot reach the target
    span = max(len(p) - 1 for p in paths)
    stages = []
    for s in range(span + 1):
        vals = tuple(p[min(s, len(p) - 1)] for p in paths)
        st = DigitalMap.from_points(f.domain, cod, vals)
        if continuity_violation(st) is not None:
            return None
        stages.append(st)
    w = HomotopyWitness(tuple(stages), "slide")
    ok, _ = verify_homotopy(w, f, DigitalMap.from_points(
        f.domain, cod, [target] * len(f.domain)))
    return w if ok else None


def mask(img: DigitalImage, points: Iterable[Point]) -> int:
    """The bitmask of the points' indices in the image: a subset as the
    covers, the category and the section search take it."""
    return sum(1 << img.points.index(p) for p in set(map(tuple, points)))


def mask_points(img: DigitalImage, m: int) -> tuple[Point, ...]:
    """The points of the image whose indices are the bits of a mask."""
    return tuple(p for i, p in enumerate(img.points) if m >> i & 1)


def maximal_admissible_sets_oracle(base: DigitalImage, oracle) -> list[int]:
    """`covers.maximal_admissible_sets` as a walk of the whole power set:
    every subset, largest first and in combinations order, skipping those
    strictly inside a maximal set already found. The library must ask the
    oracle the same subsets in the same order without walking the rest.
    Returns the maximal sets' masks."""
    maximal: list[frozenset] = []
    out: list[int] = []
    for size in range(len(base.points), 0, -1):
        for combo in itertools.combinations(base.points, size):
            key = frozenset(combo)
            if any(key < m for m in maximal):
                continue
            if oracle(mask(base, combo)):
                maximal.append(key)
                out.append(mask(base, combo))
    return out


def categorical_subsets(base: DigitalImage) -> list[Subset]:
    """The maximal subsets with nullhomotopic inclusion (the former
    `category.categorical_subsets`), as points."""
    return [mask_points(base, s) for s in
            maximal_admissible_sets(base, cat_oracle(base))]


def slide_first_cat_oracle(base: DigitalImage) -> AdmissibilityOracle:
    """The category oracle with the folded-piece order reversed: a piece
    whose domain folds is slid to each base point first, and only when
    every slide tears is its core looked up in the memo and the core's
    witness lifted by `pull_back`; a piece that is its own core goes to
    `nullhomotopy`. `category.cat_oracle`, which settles the core before
    any slide, must return the same witnesses."""

    def search(piece):
        folded = fold(induced_subimage(base, mask_points(base, piece)))
        incl = DigitalMap.inclusion(folded.image, base)
        if not folded.steps:
            return nullhomotopy(incl)
        for t in range(len(base.points)):
            w = slide_nullhomotopy(incl, t)
            if w is not None:
                return w
        core = oracle.witness(mask(base, folded.core.points))
        return None if core is None else pull_back(incl, folded, core.stages)

    oracle = AdmissibilityOracle(base, search)
    return oracle


def theta_image() -> DigitalImage:
    """Two 8-cycles sharing the side x = 2, under c1."""
    pts = ([(x, 0) for x in range(5)] + [(x, 2) for x in range(5)]
           + [(0, 1), (2, 1), (4, 1)])
    return DigitalImage(tuple(sorted(pts)), CK(1))


def is_nullhomotopic(f: DigitalMap) -> bool:
    return nullhomotopy(f) is not None


def _homotopy_class(graph: MapGraph, start: tuple[int, ...],
                    node_budget: int) -> set[tuple[int, ...]]:
    """Every state reachable from `start` in the map graph."""
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in graph.neighbor_states(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > node_budget:
                    raise BudgetExhausted(
                        f"component sweep exceeded {node_budget} states")
                queue.append(nxt)
    return seen


def are_homotopy_equivalent(x: DigitalImage, y: DigitalImage,
                            node_budget: int = 2_000_000,
                            pair_budget: int = 200_000,
                            ) -> Optional[bool]:
    """Decide homotopy equivalence when a cheap route settles it.

    Routes, in order: component counts must match; two contractible connected
    images are equivalent; an isomorphism settles it; contractible vs not
    settles it; finally, for small images, enumerate map pairs (f, g) and
    test g o f ~ id and f o g ~ id. Returns None when no route is conclusive
    within budget.
    """
    if len(x.components) != len(y.components):
        return False
    if len(x.components) == 1:
        cx = is_contractible(x)
        cy = is_contractible(y)
        if cx and cy:
            return True
        if cx != cy:
            return False
    if len(x.points) == len(y.points) and len(x.points) <= 16:
        if find_isomorphism(x, y) is not None:
            return True
    if len(x.points) > 10 or len(y.points) > 10:
        return None

    try:
        comp_x = _homotopy_class(MapGraph(x, x),
                                 DigitalMap.identity(x).value_indices,
                                 node_budget)
        comp_y = _homotopy_class(MapGraph(y, y),
                                 DigitalMap.identity(y).value_indices,
                                 node_budget)
    except BudgetExhausted:
        return None
    fwd = list(itertools.islice(all_states(MapGraph(x, y)), pair_budget))
    bwd = list(itertools.islice(all_states(MapGraph(y, x)), pair_budget))
    if len(fwd) * len(bwd) > pair_budget:
        return None
    for fi in fwd:
        for gi in bwd:
            gof = tuple(gi[v] for v in fi)
            if gof in comp_x and tuple(fi[v] for v in gi) in comp_y:
                return True
    return False


# ---- the searches maps.backtrack replaced ----

def find_section_oracle(fib, piece: Sequence[Point]) -> Optional[SectionWitness]:
    """Recursive section search over whole materialized fibers. A point
    tries, in fiber order, the wedges within one step of every assigned
    piece neighbour; the wedges within one step of a neighbour's wedge
    are found by `wedge_adjacent_oracle` on first use in the call and
    kept. Same variable order as `complexity.find_section`, so the two
    return the same first section."""
    sub = induced_subimage(fib.product, piece)
    pts = sub.points
    k = len(pts)
    nbrs = sub.neighbor_index

    ranked = sorted(range(k), key=lambda i: (-len(nbrs[i]), pts[i]))
    order: list[int] = []
    placed = [False] * k
    pool = list(ranked)
    while pool:
        best = max(pool, key=lambda i: (sum(placed[j] for j in nbrs[i]),
                                        -ranked.index(i)))
        order.append(best)
        placed[best] = True
        pool.remove(best)

    at = [fib.product.index(p) for p in pts]
    domains = [list(fib.fiber(u)) for u in at]
    if any(not dom for dom in domains):
        return None
    # (point i, neighbour j, index b into j's fiber) -> the indices into
    # i's fiber of the wedges within one step of domains[j][b]
    near: dict[tuple[int, int, int], set[int]] = {}

    def within(i: int, j: int, b: int) -> set[int]:
        got = near.get((i, j, b))
        if got is None:
            w = domains[j][b]
            got = near[i, j, b] = {
                a for a, x in enumerate(domains[i])
                if wedge_adjacent_oracle(fib, x, w)}
        return got

    assign: dict[int, int] = {}  # point -> index into its fiber

    def extend(step: int) -> bool:
        if step == k:
            return True
        i = order[step]
        cands = set(range(len(domains[i])))
        for j in nbrs[i]:
            if j in assign:
                cands &= within(i, j, assign[j])
        for a in sorted(cands):
            assign[i] = a
            if extend(step + 1):
                return True
            del assign[i]
        return False

    if not extend(0):
        return None
    return SectionWitness(tuple(at),
                          tuple(domains[i][assign[i]] for i in range(k)))


def fit_masks_oracle(n: int) -> list[int]:
    """Per semiregular permutation of range(n) other than the identity, in
    lexicographic order, the bitmask of those that differ from it in every
    column and whose composition with it is semiregular, with every pair
    tested: the oracle for `groups._fit_masks`."""
    semi = [p for p in itertools.permutations(range(n))
            if len({len(_orbit(p, x)) for x in p}) == 1]
    rows, semiregular = semi[1:], set(semi)
    return [sum(1 << b for b, q in enumerate(rows)
                if all(map(int.__ne__, p, q))
                and tuple(p[x] for x in q) in semiregular) for p in rows]


def _orbit(p: Sequence[int], x: int) -> set[int]:
    seen = set()
    while x not in seen:
        seen.add(x)
        x = p[x]
    return seen


def associativity_failure_oracle(grid: Sequence[Sequence[int]],
                                 ) -> Optional[tuple[int, int, int]]:
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc) in a
    closed index grid, or None, by scanning every triple: the oracle for
    `groups._associativity_failure`."""
    n = len(grid)
    for a, b, c in itertools.product(range(n), repeat=3):
        if grid[grid[a][b]][c] != grid[a][grid[b][c]]:
            return a, b, c
    return None


def latin_group_structures_oracle(image: DigitalImage) -> Iterator[CayleyTable]:
    """Group tables by a recursive Latin-square fill with row and column
    sets, identity row and column pinned, in the order of
    `groups.enumerate_group_structures`."""
    n = len(image.points)
    for ei in range(n):
        grid = [[-1] * n for _ in range(n)]
        for j in range(n):
            grid[ei][j] = j
            grid[j][ei] = j
        cells = [(i, j) for i in range(n) for j in range(n)
                 if i != ei and j != ei]
        row_used = [set(r for r in row if r >= 0) for row in grid]
        col_used = [set(grid[i][j] for i in range(n) if grid[i][j] >= 0)
                    for j in range(n)]

        def fill(k: int) -> Iterator[None]:
            if k == len(cells):
                yield None
                return
            i, j = cells[k]
            for v in range(n):
                if v in row_used[i] or v in col_used[j]:
                    continue
                grid[i][j] = v
                row_used[i].add(v)
                col_used[j].add(v)
                yield from fill(k + 1)
                grid[i][j] = -1
                row_used[i].remove(v)
                col_used[j].remove(v)

        for _ in fill(0):
            if associativity_failure_oracle(grid) is None:
                yield CayleyTable(image, ei, tuple(map(tuple, grid)))


def least_shortest_path_oracle(img: DigitalImage, a: Point,
                               b: Point) -> Optional[tuple[Point, ...]]:
    """The lexicographically least shortest path from a to b, or None when
    b is unreachable: every shortest path is listed, layer by layer of
    distance from b under the adjacency's own pair test, and the least
    taken. The oracle for `DigitalImage.step_toward`."""
    adj = img.adjacency.adjacent
    layers, seen = [{b}], {b}
    while a not in seen:
        ring = {q for q in img.points
                if q not in seen and any(adj(p, q) for p in layers[-1])}
        if not ring:
            return None
        layers.append(ring)
        seen |= ring
    paths = [(a,)]
    for layer in reversed(layers[:-1]):
        paths = [p + (q,) for p in paths for q in layer if adj(p[-1], q)]
    return min(paths)


def all_pairs_neighbor_index(img: DigitalImage) -> tuple[tuple[int, ...], ...]:
    """The neighbour table by testing every pair of points with the
    adjacency: the oracle for the generated `DigitalImage.neighbor_index`."""
    n = len(img.points)
    adj = img.adjacency.adjacent
    pts = img.points
    out: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if adj(pts[i], pts[j]):
                out[i].append(j)
                out[j].append(i)
    return tuple(tuple(v) for v in out)


# ---- neighbour tables before products were built from their factors ----

def candidates_oracle(adjacency, points: Sequence[Point]):
    """Per point, its candidate neighbours or None: the adjacency's own
    `candidates` for c_k and explicit edge sets. For a product, the
    generator `ProductAdjacency.candidates` was: per point (a, b), a left
    step with b fixed, a right step with a fixed and, when strong, both,
    a factor's steps being its neighbours in the projection of `points`;
    None where they outnumber `points`."""
    if not isinstance(adjacency, ProductAdjacency):
        yield from adjacency.candidates(points)
        return
    d = adjacency.left_dim
    left = neighbors_oracle(adjacency.left, {p[:d] for p in points})
    right = neighbors_oracle(adjacency.right, {p[d:] for p in points})
    strong = adjacency.strong
    for p in points:
        a, b = p[:d], p[d:]
        la, rb = left[a], right[b]
        if len(la) + len(rb) + strong * len(la) * len(rb) > len(points):
            yield None
        else:
            yield ([c + b for c in la] + [a + e for e in rb]
                   + ([c + e for c in la for e in rb] if strong else []))


def _candidate_rows(adjacency, pts: Sequence[Point]) -> Iterator[list[int]]:
    """Per point of the sorted `pts`, its sorted neighbour positions: its
    candidates found among `pts`, or the points that pass the adjacency
    test where it has none."""
    index = {p: i for i, p in enumerate(pts)}
    for p, cands in zip(pts, candidates_oracle(adjacency, pts)):
        if cands is None:
            yield [j for j, q in enumerate(pts)
                   if q != p and adjacency.adjacent(p, q)]
        else:
            yield sorted(index[q] for q in cands if q in index)


def neighbors_oracle(adjacency, points: set) -> dict[Point, list[Point]]:
    """Each of `points` with its sorted neighbours among them, by
    candidates (the former `images._neighbors`)."""
    pts = sorted(points)
    return {p: [pts[j] for j in row]
            for p, row in zip(pts, _candidate_rows(adjacency, pts))}


def candidate_neighbor_index(img: DigitalImage) -> tuple[tuple[int, ...], ...]:
    """The neighbour table by candidates, recursing into the projections
    of a product: the route every table took before products and induced
    subimages were built from their sources' tables."""
    return tuple(map(tuple, _candidate_rows(img.adjacency, img.points)))


def continuity_violation_oracle(f: DigitalMap):
    """`maps.continuity_violation` on points: the first domain edge, in
    canonical order, whose values are neither equal nor adjacent by the
    codomain adjacency's own test."""
    pts, vals = f.domain.points, f.values
    adj = f.codomain.adjacency.adjacent
    for i, j in f.domain.edge_index_pairs:
        a, b = vals[i], vals[j]
        if a != b and not adj(a, b):
            return (pts[i], pts[j])
    return None


def verify_cayley_oracle(table: CayleyTable) -> list[str]:
    """`groups.verify_cayley` on points through `CayleyTable.product`: the
    oracle for the index-grid check, failure text and witnesses included."""
    pts = table.image.points
    e = table.identity
    failures: list[str] = []

    for a in pts:
        if table.product(e, a) != a:
            failures.append(f"identity fails: {e} * {a} = {table.product(e, a)}")
            break
        if table.product(a, e) != a:
            failures.append(f"identity fails: {a} * {e} = {table.product(a, e)}")
            break

    for a, b, c in itertools.product(pts, repeat=3):
        left = table.product(table.product(a, b), c)
        right = table.product(a, table.product(b, c))
        if left != right:
            failures.append(
                f"not associative: ({a}*{b})*{c} = {left} but "
                f"{a}*({b}*{c}) = {right}")
            return failures
    for a in pts:
        inverse = next((b for b in pts if table.product(a, b) == e
                        and table.product(b, a) == e), None)
        if inverse is None:
            failures.append(f"no inverse: {a} has no two-sided inverse")
            break
    return failures


# ---- the step relation before it was decided arm by arm ----

def wedge_points(space, w):
    """An index wedge of a `WedgeSpace`, or a pair of them of a
    `PairedWedge`, with each arm index read as its base point; an index
    outside the base becomes (None, index), which is no point."""
    if isinstance(space, PairedWedge):
        return tuple(map(wedge_points, (space.left, space.right), w))
    pts = space.base.points
    return tuple(tuple(pts[q] if 0 <= q < len(pts) else (None, q)
                       for q in arm) for arm in w)


def section_points(fib, sw: SectionWitness) -> tuple[tuple, tuple]:
    """A section's piece and wedges as points, as they read before
    sections moved to index space."""
    return (tuple(fib.product.points[u] for u in sw.piece),
            tuple(wedge_points(fib, w) for w in sw.wedges))


def section_from_points(fib, piece: Sequence[Point],
                        wedges: Sequence) -> SectionWitness:
    """The section over product points with wedges of point arms, as
    `fileio.parse_sections` reads them back; inverse of `section_points`
    over an endpoint fibration. A point outside the product or the base
    raises a ValueError naming it."""
    index = fib.base.index
    return SectionWitness(tuple(map(fib.product.index, piece)), tuple(
        tuple(tuple(map(index, arm)) for arm in w) for w in wedges))


def _point_endpoints(space, pw) -> Point:
    """The product point at the free ends of a point wedge or pair."""
    if isinstance(space, PairedWedge):
        return (_point_endpoints(space.left, pw[0])
                + _point_endpoints(space.right, pw[1]))
    return tuple(c for arm in pw for c in arm[-1])


def wedge_end_point(space, w) -> Point:
    """The product point at the free ends of an index wedge or pair, read
    as points and concatenated."""
    return _point_endpoints(space, wedge_points(space, w))


def _point_is_wedge(space, pw) -> bool:
    if isinstance(space, PairedWedge):
        return (len(pw) == 2 and _point_is_wedge(space.left, pw[0])
                and _point_is_wedge(space.right, pw[1]))
    if len(pw) != space.n:
        return False
    starts = {arm[0] for arm in pw if arm}
    if len(starts) != 1:
        return False
    adj = space.base.adjacency.adjacent
    for arm in pw:
        if len(arm) != space.m + 1 or any(p not in space.base for p in arm):
            return False
        if not all(p == q or adj(p, q) for p, q in zip(arm, arm[1:])):
            return False
    return True


def wedge_is_wedge_oracle(space, w) -> bool:
    """Whether the index wedge w is a wedge of a `WedgeSpace` or a pair of
    wedges of a `PairedWedge`, with no memo: every arm of every wedge is
    read as points, length-checked and walked."""
    return _point_is_wedge(space, wedge_points(space, w))


def _point_adjacent(space, p1, p2) -> bool:
    if isinstance(space, PairedWedge):
        (a1, b1), (a2, b2) = p1, p2
        return (_point_adjacent(space.left, a1, a2)
                and _point_adjacent(space.right, b1, b2)
                and (a1 == a2 or b1 == b2))
    adj = space.base.adjacency.adjacent
    for a1, a2 in zip(p1, p2):
        for t in range(space.m + 1):
            p, q = a1[t], a2[t]
            if p != q and not adj(p, q):
                return False
        if space.strong:
            for t in range(space.m):
                for p, q in ((a1[t], a2[t + 1]), (a1[t + 1], a2[t])):
                    if p != q and not adj(p, q):
                        return False
    return True


def wedge_adjacent_oracle(space, w1, w2) -> bool:
    """The step relation of a `WedgeSpace` (its `adjacent`) or of a
    `PairedWedge` between index wedges, with no memo: every arm pair is
    read as points and tested tick by tick with the adjacency's own
    test."""
    return _point_adjacent(space, wedge_points(space, w1),
                           wedge_points(space, w2))


class AdjacencyStepMasks(dict):
    """The step masks `find_section` filled before the occupancy tables:
    for one piece edge, the mask over the later point's fiber of the
    wedges within one step of each wedge of the earlier point's fiber, one
    `wedge_adjacent_oracle` call per later wedge, filled on first use."""

    def __init__(self, space, earlier: list, later: list):
        self.space = space
        self.earlier = earlier
        self.later = later

    def __missing__(self, a: int) -> int:
        w = self.earlier[a]
        m = self[a] = sum(1 << b for b, x in enumerate(self.later)
                          if wedge_adjacent_oracle(self.space, x, w))
        return m


def verify_section_oracle(fib, sw: SectionWitness) -> tuple[bool, str | None]:
    """The point-based section checker that `complexity.verify_section`
    replaced, with the same messages: piece indices are checked against
    the product's size, and everything else on points, through
    `wedge_is_wedge_oracle`, concatenated arm ends and the edges of the
    piece's induced subimage, decided by `wedge_adjacent_oracle`."""
    if len(sw.piece) != len(sw.wedges):
        return False, "piece and assignment lengths differ"
    if len(set(sw.piece)) != len(sw.piece):
        return False, "piece repeats a point"
    pts = fib.product.points
    for u, w in zip(sw.piece, sw.wedges):
        if not 0 <= u < len(pts):
            return False, f"{u} is not in the product image"
        pw = wedge_points(fib, w)
        if not _point_is_wedge(fib, pw):
            return False, f"assignment at {pts[u]} is not a wedge of " \
                          f"{fib.n} paths of length {fib.m}"
        if _point_endpoints(fib, pw) != pts[u]:
            return False, (f"assignment at {pts[u]} ends at "
                           f"{_point_endpoints(fib, pw)}")
    piece = [pts[u] for u in sw.piece]
    if not piece:
        return True, None  # no point and no edge to check
    sub = induced_subimage(fib.product, piece)
    pos = {p: k for k, p in enumerate(piece)}
    for a, b in sub.edges():
        wa, wb = sw.wedges[pos[a]], sw.wedges[pos[b]]
        if not wedge_adjacent_oracle(fib, wa, wb):
            return False, (f"section jumps across the edge {a} ~ {b}: "
                           f"assigned wedges are not within one step")
    return True, None
