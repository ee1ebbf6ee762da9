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
section search of `complexity` (fiber wedges, masks from wedge adjacency,
linked both ways so that the search looks ahead with arc consistency),
the group enumeration of `groups` (table rows, masks from semiregularity),
the walks of `pathspace` (ticks, masks from closed neighbourhoods) and
`automorphism_generators` here (self-maps, masks from open neighbourhoods
and the complements of closed ones).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .images import DigitalImage, Point, Value, bits, subimage


class DigitalMap(Value, key=("domain", "codomain", "value_indices")):
    """A total map between digital images: its values' codomain indices,
    aligned with the domain's canonical point order, so two maps are equal
    exactly when they agree pointwise on equal images. `from_points` is
    the one constructor that takes points, and it checks them."""

    def __init__(self, domain: DigitalImage, codomain: DigitalImage,
                 value_indices: tuple[int, ...]):
        self.__dict__.update(domain=domain, codomain=codomain,
                             value_indices=value_indices)

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
    def inclusion(sub: DigitalImage, whole: DigitalImage) -> "DigitalMap":
        """The inclusion of an image read back by its points."""
        return DigitalMap(sub, whole, tuple(map(whole.index, sub.points)))

    @staticmethod
    def inclusion_of(whole: DigitalImage, mask: int) -> "DigitalMap":
        """The inclusion of the image induced on a bitmask of `whole`'s
        point indices."""
        return DigitalMap(subimage(whole, mask), whole, tuple(bits(mask)))

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
    (j, table) in links[i], is also a bit of table[chosen[j]]. Tuples come
    in lexicographic order: position by position, lowest bit first, depth
    first. A table is anything indexed by a value index, so it may fill
    its masks on first use. No positions give the one empty tuple.

    A link to an earlier position is checked when its position is reached.
    A link from i to a later position j turns on look-ahead: each row then
    lists its earlier links first, and links[j] must list the same
    relation back to i. Once i is chosen, the tables of its later
    positions narrow their masks, and arc consistency is restored over
    the unchosen positions linked both ways (`_look_ahead`); a mask that
    empties rejects the value. Both steps only drop values that extend
    the chosen prefix to no tuple, so the tuples and their order are
    those of the earlier links alone. No pass runs before the first
    choice.
    """
    n = len(roots)
    if not n:
        yield ()
        return
    back = links
    # rows list their earlier links first, so each row's last link tells
    look = any(row and row[-1][0] > i for i, row in enumerate(links))
    if look:
        tables = {(i, j): table for i, row in enumerate(links)
                  for j, table in row}
        ahead = [[(j, tables[j, i]) for j, _ in row if j > i]
                 for i, row in enumerate(links)]
        arcs = [[(i, tables[i, j], table) for i, table in row
                 if (i, j) in tables] for j, row in enumerate(links)]
        # the earlier links that no look-ahead has applied
        back = [[(j, table) for j, table in row
                 if j < i and (j, i) not in tables]
                for i, row in enumerate(links)]
        masks = [roots] * n  # masks[level]: every position's mask there
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
            continue
        if look:
            now = _look_ahead(masks[level], level, chosen[level],
                              ahead[level], arcs)
            if now is None:
                m = untried[level]
                continue
            masks[level + 1] = now
        level += 1
        m = masks[level][level] if look else roots[level]
        for j, table in back[level]:
            m &= table[chosen[j]]


def _look_ahead(masks: Sequence[int], level: int, v: int, ahead, arcs,
                ) -> Sequence[int] | None:
    """The masks after value v at `level`: each later linked position
    narrowed by its table at v, then arc consistency restored from the
    narrowed positions over those after `level`, or None once a mask
    empties. Revising i against j works from the side with fewer bits:
    the OR of i's table over j's bits, or the bits of i whose table at j
    meets j's mask."""
    if not ahead:
        return masks
    masks = list(masks)
    queue = []
    for j, table in ahead:
        mask = masks[j] & table[v]
        if not mask:
            return None
        if mask != masks[j]:
            masks[j] = mask
            queue.append(j)
    while queue:
        j = queue.pop()
        mj = masks[j]
        nj = mj.bit_count()
        for i, from_j, to_j in arcs[j]:  # i's masks by j, j's masks by i
            if i <= level:
                continue
            mi = masks[i]
            kept = 0
            if nj < mi.bit_count():
                rest = mj
                while rest:
                    b = rest & -rest
                    rest ^= b
                    kept |= from_j[b.bit_length() - 1]
                kept &= mi
            else:
                rest = mi
                while rest:
                    b = rest & -rest
                    rest ^= b
                    if to_j[b.bit_length() - 1] & mj:
                        kept |= b
            if kept != mi:
                if not kept:
                    return None
                masks[i] = kept
                if i not in queue:
                    queue.append(i)
    return masks


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
