"""Maps between digital images, their continuity, and the one search
that builds them.

A map is continuous when the image of every connected subset is connected.
On finite images this is equivalent to the edge condition: adjacent domain
points map to equal or adjacent codomain points, which is the test used
here.

`backtrack` enumerates every assignment of values to positions that meets
such edge conditions, over bitmasks of allowed value indices. It is the
one backtracker of the package, with four callers: the map graph of
`homotopy` (continuous maps, masks from closed neighbourhoods), the
section search of `complexity` (fiber wedges, masks from wedge adjacency),
the group enumeration of `groups` (table rows, masks from semiregularity)
and the walks of `pathspace` (ticks, masks from closed neighbourhoods).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .images import DigitalImage, Point


@dataclass(frozen=True)
class DigitalMap:
    """A total map between digital images.

    Values are stored aligned with the domain's canonical point order, so two
    maps are equal exactly when they agree pointwise on equal images.
    """

    domain: DigitalImage
    codomain: DigitalImage
    values: tuple[Point, ...]

    def __post_init__(self):
        vals = tuple(tuple(v) for v in self.values)
        if len(vals) != len(self.domain.points):
            raise ValueError(
                f"need {len(self.domain.points)} values, got {len(vals)}")
        for v in vals:
            if v not in self.codomain:
                raise ValueError(f"value {v} is not in the codomain")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_mapping(domain: DigitalImage, codomain: DigitalImage,
                     mapping: Mapping[Point, Point]) -> "DigitalMap":
        try:
            vals = tuple(tuple(mapping[p]) for p in domain.points)
        except KeyError as missing:
            raise ValueError(f"no value for domain point {missing.args[0]}") from None
        return DigitalMap(domain, codomain, vals)

    @staticmethod
    def identity(img: DigitalImage) -> "DigitalMap":
        return DigitalMap(img, img, img.points)

    @staticmethod
    def constant(domain: DigitalImage, codomain: DigitalImage,
                 value: Point) -> "DigitalMap":
        value = tuple(value)
        if value not in codomain:
            raise ValueError(f"constant value {value} is not in the codomain")
        return DigitalMap(domain, codomain, (value,) * len(domain.points))

    @staticmethod
    def inclusion(sub: DigitalImage, whole: DigitalImage) -> "DigitalMap":
        for p in sub.points:
            if p not in whole:
                raise ValueError(f"{p} is not a point of the larger image")
        return DigitalMap(sub, whole, sub.points)

    def __call__(self, p: Point) -> Point:
        return self.values[self.domain.index(p)]

    @cached_property
    def value_indices(self) -> tuple[int, ...]:
        """Values as codomain point indices (the search-state encoding)."""
        idx = self.codomain.index
        return tuple(idx(v) for v in self.values)

    def is_constant(self) -> bool:
        return len(set(self.values)) == 1

    def after(self, inner: "DigitalMap") -> "DigitalMap":
        """Composition self o inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition mismatch: codomain of the inner map "
                             "must equal domain of the outer map")
        vals = tuple(self.values[self.domain.index(v)] for v in inner.values)
        return DigitalMap(inner.domain, self.codomain, vals)

    def is_bijective(self) -> bool:
        return (len(set(self.values)) == len(self.values)
                and len(self.values) == len(self.codomain.points))

    def inverse(self) -> "DigitalMap":
        if not self.is_bijective():
            raise ValueError("only bijective maps invert")
        inv = {v: p for p, v in zip(self.domain.points, self.values)}
        return DigitalMap.from_mapping(self.codomain, self.domain, inv)


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
