"""Maps between digital images, their continuity, and the one search
that builds them.

A map is continuous when the image of every connected subset is connected.
On finite images this is equivalent to the edge condition: adjacent domain
points map to equal or adjacent codomain points, which is the test used
here on the codomain indices that a map holds in place of points.

`backtrack` enumerates every assignment of values to positions that meets
such edge conditions, over bitmasks of allowed value indices. It is the
one backtracker of the package, with five callers: the map graph of
`homotopy` (continuous maps, masks from closed neighbourhoods), the
section search of `complexity` (fiber wedges, masks from wedge adjacency),
the group enumeration of `groups` (table rows, masks from semiregularity),
the walks of `pathspace` (ticks, masks from closed neighbourhoods) and
`automorphism_generators` here (self-maps, masks from open neighbourhoods
and the complements of closed ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .images import DigitalImage, Point


@dataclass(frozen=True)
class DigitalMap:
    """A total map between digital images: its values' codomain indices,
    aligned with the domain's canonical point order, so two maps are equal
    exactly when they agree pointwise on equal images. `from_points` is
    the one constructor that takes points, and it checks them."""

    domain: DigitalImage
    codomain: DigitalImage
    value_indices: tuple[int, ...]

    @staticmethod
    def from_points(domain: DigitalImage, codomain: DigitalImage,
                    values: Sequence[Point]) -> "DigitalMap":
        """The map sending the i-th domain point to values[i], checked."""
        vals = [tuple(v) for v in values]
        if len(vals) != len(domain.points):
            raise ValueError(f"need {len(domain.points)} values, got {len(vals)}")
        for v in vals:
            if v not in codomain:
                raise ValueError(f"value {v} is not in the codomain")
        return DigitalMap(domain, codomain, tuple(map(codomain.index, vals)))

    @staticmethod
    def from_mapping(domain: DigitalImage, codomain: DigitalImage,
                     mapping: Mapping[Point, Point]) -> "DigitalMap":
        try:
            vals = [mapping[p] for p in domain.points]
        except KeyError as missing:
            raise ValueError(f"no value for domain point {missing.args[0]}") from None
        return DigitalMap.from_points(domain, codomain, vals)

    @staticmethod
    def identity(img: DigitalImage) -> "DigitalMap":
        return DigitalMap(img, img, tuple(range(len(img.points))))

    @staticmethod
    def constant(domain: DigitalImage, codomain: DigitalImage,
                 value: Point) -> "DigitalMap":
        value = tuple(value)
        if value not in codomain:
            raise ValueError(f"constant value {value} is not in the codomain")
        return DigitalMap(domain, codomain, (codomain.index(value),) * len(domain))

    @staticmethod
    def inclusion(sub: DigitalImage, whole: DigitalImage) -> "DigitalMap":
        for p in sub.points:
            if p not in whole:
                raise ValueError(f"{p} is not a point of the larger image")
        return DigitalMap(sub, whole, tuple(whole._index[p] for p in sub.points))

    @cached_property
    def values(self) -> tuple[Point, ...]:
        """The values as codomain points, for reports and messages."""
        pts = self.codomain.points
        return tuple(pts[v] for v in self.value_indices)

    def __call__(self, p: Point) -> Point:
        return self.codomain.points[self.value_indices[self.domain.index(p)]]

    def is_constant(self) -> bool:
        return len(set(self.value_indices)) == 1

    def after(self, inner: "DigitalMap") -> "DigitalMap":
        """Composition self o inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition mismatch: codomain of the inner map "
                             "must equal domain of the outer map")
        vals = tuple(self.value_indices[v] for v in inner.value_indices)
        return DigitalMap(inner.domain, self.codomain, vals)

    def is_bijective(self) -> bool:
        return (len(set(self.value_indices)) == len(self.value_indices)
                == len(self.codomain.points))

    def inverse(self) -> "DigitalMap":
        if not self.is_bijective():
            raise ValueError("only bijective maps invert")
        vals = self.value_indices  # a bijection: its argsort inverts it
        inv = sorted(range(len(vals)), key=vals.__getitem__)
        return DigitalMap(self.codomain, self.domain, tuple(inv))


# ---- continuity ----

def continuity_violation(f: DigitalMap) -> tuple[Point, Point] | None:
    """First domain edge (canonical order) whose images are neither equal nor
    adjacent, or None when the map is continuous: value indices tested
    against the codomain's closed neighbourhood masks."""
    vals = f.value_indices
    closed = f.codomain.closed_masks
    for i, j in f.domain.edge_index_pairs:
        if not closed[vals[i]] >> vals[j] & 1:
            pts = f.domain.points
            return (pts[i], pts[j])
    return None


def is_continuous(f: DigitalMap) -> bool:
    return continuity_violation(f) is None


# ---- the backtracker ----

def backtrack(roots: Sequence[int],
              links: Sequence[Sequence[tuple[int, Sequence[int]]]],
              ) -> Iterator[tuple[int, ...]]:
    """Every tuple `chosen` with chosen[i] a bit of roots[i] that, for each
    (j, table) in links[i] (always j < i), is also a bit of
    table[chosen[j]]. Tuples come in lexicographic order: position by
    position, lowest bit first, depth first. A table is anything indexed
    by a value index, so it may fill its masks on first use. No positions
    give the one empty tuple."""
    n = len(roots)
    if not n:
        yield ()
        return
    chosen = [0] * n
    untried = [0] * n
    level = 0
    m = roots[0]
    while True:
        if not m:
            level -= 1
            if level < 0:
                return
            m = untried[level]
            continue
        b = m & -m
        untried[level] = m ^ b
        chosen[level] = b.bit_length() - 1
        if level + 1 == n:
            yield tuple(chosen)
            m = untried[level]
        else:
            level += 1
            m = roots[level]
            for j, table in links[level]:
                m &= table[chosen[j]]


def automorphism_generators(img: DigitalImage) -> tuple[tuple[int, ...], ...]:
    """Generators of the image's automorphism group, as point-index
    permutations, found without listing the group.

    For each point i and each later point w of i's degree, one
    first-solution `backtrack` looks for an automorphism that fixes the
    points before i and sends i to w. Every position links to every
    earlier one, through the open-neighbour masks where the two points are
    adjacent and through the masks of the points neither equal nor
    adjacent where they are not, so each tuple found is a bijection that
    keeps adjacency both ways: an automorphism. The tuples found, with the
    identity, are a transversal of the stabiliser chain of the points in
    index order, so they generate the group; the identity is left out.
    At most n(n-1)/2 searches.
    """
    nbrs = img.neighbor_index
    n = len(nbrs)
    closed = img.closed_masks
    full = (1 << n) - 1
    adjacent = tuple(c ^ (1 << i) for i, c in enumerate(closed))
    apart = tuple(full ^ c for c in closed)
    by_degree: dict[int, int] = {}
    for i, row in enumerate(nbrs):
        by_degree[len(row)] = by_degree.get(len(row), 0) | 1 << i
    roots = [by_degree[len(row)] for row in nbrs]
    links = [[(j, adjacent if closed[i] >> j & 1 else apart)
              for j in range(i)] for i in range(n)]
    found = []
    for i in range(n):
        pinned = [1 << j for j in range(i)]
        for w in range(i + 1, n):
            if roots[i] >> w & 1:
                g = next(backtrack(pinned + [1 << w] + roots[i + 1:], links),
                         None)
                if g is not None:
                    found.append(g)
    return tuple(found)
