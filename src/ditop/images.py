"""Finite digital images: point sets in Z^r carrying an adjacency relation.

A digital image is a finite set of lattice points together with a symmetric,
irreflexive adjacency relation. Points are plain int tuples, images keep
their points in sorted order so that every derived object (edge lists,
neighbor tables, search states) is canonical and reproducible.

Neighbour tables are generated from structure, not by testing all pairs.
On a user image each adjacency kind's `candidates` proposes every point's
possible neighbours, which are looked up among the points. Products,
powers and induced subimages are derived (`DigitalImage._derived`): their
points are trusted, and their tables come from their sources' tables in
index space, where the point (i, j) of X x Y has index i*|Y| + j.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import add
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

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

    def candidates(self, points: Sequence[Point]) -> Iterator[list[Point]]:
        """Per point, its edge partners: points of the image, which rejects
        edge endpoints outside it, so never more than `points`."""
        for p in points:
            yield self._partners.get(p, [])


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


Adjacency = Union[CK, Explicit, ProductAdjacency]


def _neighbor_rows(adjacency: Adjacency, points: Sequence[Point],
                   index: dict[Point, int]) -> Iterator[list[int]]:
    """Per point of the sorted `points` (positions in `index`), its sorted
    neighbour positions: its candidates found in `index` or, where it has
    none (a product adjacency proposes none), the points that pass the
    adjacency test."""
    generate = getattr(adjacency, "candidates", None)
    proposed = generate(points) if generate else itertools.repeat(None)
    for p, cands in zip(points, proposed):
        if cands is None:
            yield [j for j, q in enumerate(points)
                   if q != p and adjacency.adjacent(p, q)]
        else:
            yield sorted(index[q] for q in cands if q in index)


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

    @classmethod
    def _derived(cls, points: tuple[Point, ...], adjacency: Adjacency,
                 rows: Callable[[], Iterable[tuple[int, ...]]],
                 ) -> "DigitalImage":
        """An image on points taken from existing images, so already
        sorted, distinct int tuples of one dimension: `__post_init__` is
        skipped, and `rows()` builds the neighbour table on first use."""
        img = object.__new__(cls)
        img.__dict__.update(points=points, adjacency=adjacency, _rows=rows)
        return img

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

    def mask(self, points: Iterable[Point]) -> int:
        """The bitmask of the points' indices."""
        return sum({1 << self.index(p) for p in points})

    def points_of(self, mask: int) -> tuple[Point, ...]:
        """The points whose indices are the bits of a mask."""
        return tuple(self.points[i] for i in bits(mask))

    @cached_property
    def neighbor_index(self) -> tuple[tuple[int, ...], ...]:
        """For each point index, the sorted indices of its neighbors: from
        the sources' tables for a derived image (which then lets its
        sources go), else generated from the adjacency's structure."""
        rows = self.__dict__.pop("_rows", None)
        if rows is not None:
            return tuple(rows())
        return tuple(map(tuple, _neighbor_rows(self.adjacency, self.points,
                                               self._index)))

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Per point index, the bitmask of the point and its neighbours."""
        return tuple(sum(1 << j for j in (i, *nbrs))
                     for i, nbrs in enumerate(self.neighbor_index))

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
    def components(self) -> tuple[int, ...]:
        """The connected components as bitmasks of point indices, in the
        order of their least indices."""
        comps = []
        unseen = (1 << len(self.points)) - 1
        while unseen:
            comp = unseen & -unseen
            todo = [comp.bit_length() - 1]
            while todo:
                for j in self.neighbor_index[todo.pop()]:
                    if not comp >> j & 1:
                        comp |= 1 << j
                        todo.append(j)
            comps.append(comp)
            unseen &= ~comp
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

    @cached_property
    def _steps(self) -> dict[int, tuple[int, ...]]:
        """`step_toward`'s columns, each built on first use."""
        return {}

    def step_toward(self, j: int) -> tuple[int, ...]:
        """Per point index, its least-indexed neighbour one step closer to
        point j (j at j, -1 where j is unreachable): the lexicographically
        least shortest paths to j."""
        step = self._steps.get(j)
        if step is None:
            dist = self.distance_matrix[j]
            step = self._steps[j] = tuple(
                next((v for v in nbrs if dist[v] == d - 1), -1) if d else i
                for i, (d, nbrs) in enumerate(zip(dist, self.neighbor_index)))
        return step


def interval_image(lo: int, hi: int) -> DigitalImage:
    """The digital interval [lo, hi] in Z with c_1 adjacency."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return DigitalImage(tuple((i,) for i in range(lo, hi + 1)), CK(1))


def product_image(x: DigitalImage, y: DigitalImage, *,
                  strong: bool = False) -> DigitalImage:
    """Cartesian product with the minimal product adjacency, or with the
    strong one when `strong`. Its neighbour table is built on first use
    by column slices: X's point i' owns the indices i'*k .. i'*k + k - 1
    (k = |Y|), sliced once from one list of ints, and row (i, j) reads
    column j of the blocks of i's neighbours by `zip`, around i*k + j' for
    Y's neighbours j' of j. When strong, a block's column j is the tuple
    of its cells at j and at j's neighbours, which the row flattens."""
    adjacency = ProductAdjacency(x.adjacency, y.adjacency, x.dim, strong)
    # sorted factors concatenate to sorted points: (i, j) has index i*k + j
    pts = tuple(a + b for a in x.points for b in y.points)

    def rows() -> Iterator[tuple[int, ...]]:
        """Row (i, j): column j of the blocks i' < i, i*k + j' for the
        right neighbours j' of j, column j of the blocks i' > i; sorted."""
        right = y.neighbor_index
        k = len(right)
        # rows share one int object per index: fresh ints past 256 would
        # take more memory than the rows' tuples themselves
        ids = list(range(len(pts)))
        blocks = [ids[a:a + k] for a in range(0, len(pts), k)]
        cols = blocks
        if strong:
            closed = [sorted((j, *row)) for j, row in enumerate(right)]
            cols = [[tuple([b[c] for c in cj]) for cj in closed]
                    for b in blocks]
        empty = itertools.repeat(())  # the columns of no blocks
        for i, row in enumerate(x.neighbor_index):
            mid = blocks[i]
            lo = [cols[a] for a in row if a < i]
            hi = [cols[a] for a in row if a > i]
            for before, nj, after in zip(zip(*lo) if lo else empty, right,
                                         zip(*hi) if hi else empty):
                if strong:
                    before, after = sum(before, ()), sum(after, ())
                yield before + tuple([mid[b] for b in nj]) + after

    return DigitalImage._derived(pts, adjacency, rows)


def power_image(x: DigitalImage, n: int, *,
                strong: bool = False) -> DigitalImage:
    """The n-fold product X^n (left associated), n >= 1."""
    if n < 1:
        raise ValueError(f"power needs n >= 1, got {n}")
    out = x
    for _ in range(n - 1):
        out = product_image(out, x, strong=strong)
    return out


def bits(mask: int) -> list[int]:
    """The set bits of a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def subimage(img: DigitalImage, mask: int) -> DigitalImage:
    """The image induced on a nonempty bitmask of point indices: the
    image's own points, and its rows restricted and monotonically
    renumbered. The adjacency object is shared, except that explicit
    edge sets are restricted to the surviving points."""
    keep = bits(mask)
    if not keep:
        raise ValueError("induced subimage needs at least one point")
    sub = tuple(img.points[i] for i in keep)
    adjacency = img.adjacency
    if isinstance(adjacency, Explicit):
        have = set(sub)
        adjacency = Explicit(frozenset(
            e for e in adjacency.edges if e[0] in have and e[1] in have))
    new = {i: k for k, i in enumerate(keep)}
    return DigitalImage._derived(sub, adjacency, lambda: (
        tuple(new[j] for j in img.neighbor_index[i] if j in new)
        for i in keep))


def induced_subimage(img: DigitalImage,
                     subset: Iterable[Point]) -> DigitalImage:
    """The image induced on a nonempty set of points: `subimage` on
    their index mask."""
    return subimage(img, img.mask(subset))
