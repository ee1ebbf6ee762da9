"""Finite digital images: point sets in Z^r carrying an adjacency relation.

A digital image is a finite set of lattice points together with a symmetric,
irreflexive adjacency relation. Points are plain int tuples, images keep
their points in sorted order so that every derived object (edge lists,
neighbor tables, search states) is canonical and reproducible.

Neighbour tables are generated from the adjacency's structure, not by
testing all pairs: each adjacency kind's `candidates` proposes every
point's possible neighbours, which are looked up among the points. A new
adjacency kind supplies `candidates` and joins the all-pairs oracle test.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Optional, Sequence, Union

Point = tuple[int, ...]


def ck_adjacent(p: Point, q: Point, k: int) -> bool:
    """c_k-adjacency on Z^r.

    Distinct points are c_k-adjacent when at most k coordinates differ by
    exactly 1 and all remaining coordinates are equal. c_1 is the 4-adjacency
    of the plane, c_2 the 8-adjacency.
    """
    r = len(p)
    if len(q) != r:
        raise ValueError(f"dimension mismatch: {p} vs {q}")
    if not 1 <= k <= r:
        raise ValueError(f"c_k needs 1 <= k <= {r}, got k={k}")
    moved = 0
    for a, b in zip(p, q):
        d = a - b
        if d == 1 or d == -1:
            moved += 1
        elif d != 0:
            return False
    return 1 <= moved <= k


@dataclass(frozen=True)
class CK:
    """The c_k adjacency of the ambient Z^r."""

    k: int

    def adjacent(self, p: Point, q: Point) -> bool:
        return ck_adjacent(p, q, self.k)

    def candidates(self, points: Sequence[Point]) -> Iterator[Optional[list[Point]]]:
        """Per point, the points one c_k step away; None throughout when the
        3^r - 1 unit steps of Z^r outnumber `points`."""
        r = len(points[0])
        steps = ([s for s in itertools.product((-1, 0, 1), repeat=r)
                  if 0 < r - s.count(0) <= self.k]
                 if 3 ** r - 1 <= len(points) else None)
        for p in points:
            yield None if steps is None else [tuple(map(add, p, s)) for s in steps]


@dataclass(frozen=True)
class Explicit:
    """Adjacency given by an explicit symmetric irreflexive edge set.

    Edges are stored as sorted point pairs, one per unordered edge.
    """

    edges: frozenset[tuple[Point, Point]]

    @staticmethod
    def of(pairs: Iterable[tuple[Point, Point]]) -> "Explicit":
        norm = set()
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            if a == b:
                raise ValueError(f"loop edge at {a} not allowed")
            norm.add((a, b) if a < b else (b, a))
        return Explicit(frozenset(norm))

    def adjacent(self, p: Point, q: Point) -> bool:
        if p == q:
            return False
        return ((p, q) if p < q else (q, p)) in self.edges

    @cached_property
    def _partners(self) -> dict[Point, list[Point]]:
        out: dict[Point, list[Point]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
            out.setdefault(b, []).append(a)
        return out

    def candidates(self, points: Sequence[Point]) -> Iterator[Optional[list[Point]]]:
        """Per point, its edge partners; None where they outnumber `points`."""
        for p in points:
            nbrs = self._partners.get(p, [])
            yield nbrs if len(nbrs) <= len(points) else None


@dataclass(frozen=True)
class ProductAdjacency:
    """Adjacency of a cartesian product, in the minimal or strong variant.

    Points of the product are concatenated coordinate tuples; the first
    left_dim coordinates belong to the left factor. Distinct product points
    are adjacent when:

    - minimal: exactly one factor takes an adjacency step, the other is equal;
    - strong: each factor is equal or adjacent (at least one adjacent).
    """

    left: "Adjacency"
    right: "Adjacency"
    left_dim: int
    right_dim: int
    strong: bool

    def adjacent(self, p: Point, q: Point) -> bool:
        d = self.left_dim
        a, b = p[:d], p[d:]
        c, e = q[:d], q[d:]
        if a == c:
            return b != e and self.right.adjacent(b, e)
        if not self.left.adjacent(a, c):
            return False
        if b == e:
            return True
        return self.strong and self.right.adjacent(b, e)

    def candidates(self, points: Sequence[Point]) -> Iterator[Optional[list[Point]]]:
        """Per point (a, b): a left step with b fixed, a right step with a
        fixed and, when strong, both; a factor's steps are its neighbours in
        the projection of `points`. None where they outnumber `points`."""
        d = self.left_dim
        left = _neighbors(self.left, {p[:d] for p in points})
        right = _neighbors(self.right, {p[d:] for p in points})
        for p in points:
            a, b = p[:d], p[d:]
            la, rb = left[a], right[b]
            if len(la) + len(rb) + self.strong * len(la) * len(rb) > len(points):
                yield None
            else:
                yield ([c + b for c in la] + [a + e for e in rb]
                       + ([c + e for c in la for e in rb] if self.strong else []))


Adjacency = Union[CK, Explicit, ProductAdjacency]


def _neighbor_rows(adjacency: Adjacency, points: Sequence[Point],
                   index: dict[Point, int]) -> Iterator[list[int]]:
    """Per point of the sorted `points` (positions in `index`), its sorted
    neighbour positions: its candidates found in `index` or, where it has
    none, the points that pass the adjacency test."""
    for p, cands in zip(points, adjacency.candidates(points)):
        if cands is None:
            yield [j for j, q in enumerate(points)
                   if q != p and adjacency.adjacent(p, q)]
        else:
            yield sorted(index[q] for q in cands if q in index)


def _neighbors(adjacency: Adjacency,
               points: set[Point]) -> dict[Point, list[Point]]:
    """Each of `points` with its sorted neighbours among them."""
    pts = sorted(points)
    rows = _neighbor_rows(adjacency, pts, {p: i for i, p in enumerate(pts)})
    return {p: [pts[j] for j in row] for p, row in zip(pts, rows)}


@dataclass(frozen=True)
class DigitalImage:
    """A finite digital image: sorted distinct points plus an adjacency."""

    points: tuple[Point, ...]
    adjacency: Adjacency

    def __post_init__(self):
        pts = tuple(sorted({tuple(int(c) for c in p) for p in self.points}))
        if not pts:
            raise ValueError("an image needs at least one point")
        d = len(pts[0])
        for p in pts:
            if len(p) != d:
                raise ValueError(f"mixed dimensions: {pts[0]} vs {p}")
        object.__setattr__(self, "points", pts)
        if isinstance(self.adjacency, CK) and not 1 <= self.adjacency.k <= d:
            raise ValueError(f"c{self.adjacency.k} undefined on Z^{d}")
        if isinstance(self.adjacency, Explicit):
            have = set(pts)
            for a, b in self.adjacency.edges:
                if a not in have:
                    raise ValueError(f"edge endpoint {a} is not a point of the image")
                if b not in have:
                    raise ValueError(f"edge endpoint {b} is not a point of the image")

    # ---- basic queries ----

    @cached_property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._index

    @cached_property
    def _index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}

    def index(self, p: Point) -> int:
        try:
            return self._index[tuple(p)]
        except KeyError:
            raise ValueError(f"point {tuple(p)} is not in the image") from None

    def adjacent(self, a: Point, b: Point) -> bool:
        """Symmetric, irreflexive adjacency test for two points of the image."""
        a, b = tuple(a), tuple(b)
        self.index(a)
        self.index(b)
        if a == b:
            return False
        return self.adjacency.adjacent(a, b)

    @cached_property
    def neighbor_index(self) -> tuple[tuple[int, ...], ...]:
        """For each point index, the sorted indices of its neighbors,
        generated from the adjacency's structure."""
        return tuple(map(tuple, _neighbor_rows(self.adjacency, self.points,
                                               self._index)))

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Per point index, the bitmask of the point and its neighbours."""
        return tuple(sum(1 << j for j in (i, *nbrs))
                     for i, nbrs in enumerate(self.neighbor_index))

    def neighbors(self, p: Point) -> tuple[Point, ...]:
        i = self.index(p)
        return tuple(self.points[j] for j in self.neighbor_index[i])

    @cached_property
    def edge_index_pairs(self) -> tuple[tuple[int, int], ...]:
        """All edges as index pairs (i, j) with i < j, in canonical order."""
        out = []
        for i, nbrs in enumerate(self.neighbor_index):
            for j in nbrs:
                if j > i:
                    out.append((i, j))
        return tuple(out)

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        pts = self.points
        return tuple((pts[i], pts[j]) for i, j in self.edge_index_pairs)

    # ---- connectivity ----

    @cached_property
    def components(self) -> tuple[frozenset[Point], ...]:
        n = len(self.points)
        seen = [False] * n
        comps = []
        for s in range(n):
            if seen[s]:
                continue
            comp = []
            dq = deque([s])
            seen[s] = True
            while dq:
                i = dq.popleft()
                comp.append(i)
                for j in self.neighbor_index[i]:
                    if not seen[j]:
                        seen[j] = True
                        dq.append(j)
            comps.append(frozenset(self.points[i] for i in comp))
        return tuple(comps)

    @cached_property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @cached_property
    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Graph distances between point indices, -1 where unreachable."""
        n = len(self.points)
        rows = []
        for s in range(n):
            dist = [-1] * n
            dist[s] = 0
            dq = deque([s])
            while dq:
                i = dq.popleft()
                di = dist[i] + 1
                for j in self.neighbor_index[i]:
                    if dist[j] < 0:
                        dist[j] = di
                        dq.append(j)
            rows.append(tuple(dist))
        return tuple(rows)

    @cached_property
    def diameter(self) -> int:
        """Largest graph distance; raises on disconnected images."""
        if not self.is_connected:
            raise ValueError("diameter undefined: image is not connected")
        return max(max(row) for row in self.distance_matrix)

    def lex_shortest_path(self, a: Point, b: Point) -> tuple[Point, ...]:
        """The lexicographically least shortest path from a to b.

        Greedy walk from a, always stepping to the least-indexed neighbor that
        reduces the distance to b. Raises when b is unreachable from a.
        """
        i, j = self.index(a), self.index(b)
        dist_to_b = [row[j] for row in self.distance_matrix]
        if dist_to_b[i] < 0:
            raise ValueError(f"no path from {a} to {b}")
        path = [i]
        cur = i
        while cur != j:
            step = dist_to_b[cur] - 1
            cur = next(v for v in self.neighbor_index[cur] if dist_to_b[v] == step)
            path.append(cur)
        return tuple(self.points[v] for v in path)


def interval_image(lo: int, hi: int) -> DigitalImage:
    """The digital interval [lo, hi] in Z with c_1 adjacency."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return DigitalImage(tuple((i,) for i in range(lo, hi + 1)), CK(1))


def product_image(x: DigitalImage, y: DigitalImage, *,
                  strong: bool = False) -> DigitalImage:
    """Cartesian product with the minimal product adjacency, or with the
    strong one when `strong`."""
    adjacency = ProductAdjacency(x.adjacency, y.adjacency, x.dim, y.dim,
                                 strong)
    pts = tuple(a + b for a in x.points for b in y.points)
    return DigitalImage(pts, adjacency)


def power_image(x: DigitalImage, n: int, *,
                strong: bool = False) -> DigitalImage:
    """The n-fold product X^n (left associated), n >= 1."""
    if n < 1:
        raise ValueError(f"power needs n >= 1, got {n}")
    out = x
    for _ in range(n - 1):
        out = product_image(out, x, strong=strong)
    return out


def induced_subimage(img: DigitalImage,
                     subset: Iterable[Point]) -> DigitalImage:
    """The image induced on a nonempty subset of points.

    The adjacency object is shared, except that explicit edge sets are
    restricted to the surviving points.
    """
    sub = tuple(sorted({tuple(p) for p in subset}))
    if not sub:
        raise ValueError("induced subimage needs at least one point")
    for p in sub:
        if p not in img:
            raise ValueError(f"point {p} is not in the image")
    adjacency = img.adjacency
    if isinstance(adjacency, Explicit):
        keep = set(sub)
        adjacency = Explicit(frozenset(
            e for e in adjacency.edges if e[0] in keep and e[1] in keep))
    return DigitalImage(sub, adjacency)
