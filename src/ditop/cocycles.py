"""Cocycle certificates: a "no" of homotopy without a search.

A cocycle of an image Y labels its oriented edges, φ(v, u) = −φ(u, v),
so that φ sums to 0 around every 3- and 4-cycle of Y, chords or not. If
maps f, g: X → Y are one homotopy tick apart and a ~ b in X, the closed
walk f(a), f(b), g(b), g(a) steps only to equal or adjacent points, so
it is a 3- or 4-cycle or folds back, and φ sums to 0 on it. Summed along
a closed walk γ of X, φ(f∘γ) = φ(g∘γ), and by induction for homotopic
maps. So φ(f∘γ) ≠ φ(g∘γ) proves that f and g are not homotopic, and
φ(f∘γ) ≠ 0 that f is not nullhomotopic. The proof holds over any abelian
group; here it is the integers mod the prime P. Digital homotopy is the
A-homotopy of graphs, whose fundamental group is that of Y with its 3-
and 4-cycles filled (Barcelo, Kramer, Laubenbacher and Weaver 2001;
Babson, Barcelo, de Longueville and Laubenbacher 2006). Cocycles see
only part of it, so a map with no obstruction may still not contract.
"""

from __future__ import annotations

import weakref

from .images import DigitalImage, Point

P = (1 << 61) - 1

Cocycle = dict[tuple[int, int], int]

_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _forest(nbrs) -> tuple[list[int], list[int]]:
    """A breadth-first spanning forest: the points in visiting order, and
    each point's parent, -1 at a root."""
    parent, order = [-2] * len(nbrs), []
    for root in range(len(nbrs)):
        if parent[root] == -2:
            parent[root], tree = -1, [root]
            for a in tree:
                for b in nbrs[a]:
                    if parent[b] == -2:
                        parent[b] = a
                        tree.append(b)
            order += tree
    return order, parent


def _short_cycles(nbrs):
    """Each 3-cycle and each 4-cycle of a neighbour table once, as index
    tuples a, b, c(, d) with a the least: a 4-cycle by a, its opposite
    corner c and the two corners b < d between them."""
    adj = [set(row) for row in nbrs]
    for a, row in enumerate(nbrs):
        up = [b for b in row if b > a]
        across: dict[int, list[int]] = {}
        for i, b in enumerate(up):
            yield from ((a, b, c) for c in up[i + 1:] if c in adj[b])
            for c in nbrs[b]:
                if c > a:
                    across.setdefault(c, []).append(b)
        for c, mids in across.items():
            for i, b in enumerate(mids):
                yield from ((a, b, c, d) for d in mids[i + 1:])


def basis(img: DigitalImage) -> tuple[Cocycle, ...]:
    """A basis of img's cocycles mod P, as dicts from index pairs u < v
    to φ(u, v), cached per image. Each is zero on a spanning forest, so
    it is its values on the other edges, the columns. Every 3- and 4-cycle
    is a row over the columns, and the basis is the rows' kernel: the
    elimination keeps one row per pivot, its least column, and each free
    column gives one cocycle."""
    if img not in _BASES:
        _BASES[img] = _kernel(img)
    return _BASES[img]


def _kernel(img: DigitalImage) -> tuple[Cocycle, ...]:
    _, parent = _forest(img.neighbor_index)
    cols = [(u, v) for u, v in img.edge_index_pairs
            if parent[v] != u and parent[u] != v]
    at = {e: k for k, e in enumerate(cols)}
    pivots: dict[int, dict[int, int]] = {}
    for cycle in _short_cycles(img.neighbor_index):
        row = {}
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            k = at.get((u, v) if u < v else (v, u))
            if k is not None:
                row[k] = 1 if u < v else P - 1
        while row:
            low = min(row)
            if low not in pivots:
                inv = pow(row[low], -1, P)
                pivots[low] = {k: c * inv % P for k, c in row.items()}
                break
            c = row[low]
            for k, d in pivots[low].items():
                if (x := (row.get(k, 0) - c * d) % P):
                    row[k] = x
                else:
                    row.pop(k, None)
    out = []
    for free in (k for k in range(len(cols)) if k not in pivots):
        phi = {free: 1}
        for low in sorted(pivots, reverse=True):
            x = -sum(c * phi.get(k, 0) for k, c in pivots[low].items()) % P
            if x:
                phi[low] = x
        out.append({cols[k]: c for k, c in phi.items()})
    return tuple(out)


def obstruction(f, g=None) -> tuple[Cocycle, tuple[int, ...]] | None:
    """(φ, γ): a basis cocycle φ of f's codomain and a closed walk γ of
    f's domain, as indices, with φ(f∘γ) ≠ φ(g∘γ), g a constant when None;
    or None when no basis cocycle, and so no cocycle mod P, tells them
    apart.
    Potentials of the labels f*φ − g*φ grow over a spanning forest of the
    domain, and the first edge whose ends disagree closes γ through it."""
    fv = f.value_indices
    gv = (0,) * len(fv) if g is None else g.value_indices
    order, parent = _forest(f.domain.neighbor_index)
    for phi in basis(f.codomain):
        def label(a: int, b: int) -> int:
            return (phi.get((fv[a], fv[b]), 0) - phi.get((fv[b], fv[a]), 0)
                    - phi.get((gv[a], gv[b]), 0) + phi.get((gv[b], gv[a]), 0))

        pot = [0] * len(order)
        for b in order:
            if (a := parent[b]) >= 0:
                pot[b] = (pot[a] + label(a, b)) % P
        for a, b in f.domain.edge_index_pairs:
            if (pot[a] + label(a, b) - pot[b]) % P:
                up_a, up_b = [a], [b]
                for up in (up_a, up_b):
                    while parent[up[-1]] >= 0:
                        up.append(parent[up[-1]])
                while len(up_a) > 1 < len(up_b) and up_a[-2] == up_b[-2]:
                    up_a.pop(), up_b.pop()
                return phi, (*reversed(up_a), *up_b)
    return None


def check_certificate(img: DigitalImage, phi: dict[tuple[Point, Point], int],
                      walk, other=None) -> tuple[int | None, str | None]:
    """Re-verify a certificate on points, with `img.adjacency.adjacent`
    alone and no code of the search: φ, on ordered point pairs and read
    antisymmetrically, sums to 0 mod P around every 3- and 4-cycle of
    img; `walk`, and `other` when given, are closed walks of img's points,
    each step equal or adjacent; and φ(walk) ≠ φ(other), or 0. Returns
    (φ(walk) − φ(other) as a signed residue, None), or (None, the first
    failure)."""
    adj, pts = img.adjacency.adjacent, img.points

    def step(p: Point, q: Point) -> int:
        return phi.get((p, q), 0) - phi.get((q, p), 0)

    near = {p: [q for q in pts if adj(p, q)] for p in pts}
    for p in pts:
        for q in near[p]:
            for r in near[q]:
                for cyc in ((p, q, r), *((p, q, r, s) for s in near[r])):
                    if len(set(cyc)) == len(cyc) and adj(cyc[-1], p) and sum(
                            map(step, cyc, cyc[1:] + cyc[:1])) % P:
                        return None, (f"φ does not sum to 0 on the {len(cyc)}"
                                      f"-cycle {', '.join(map(str, cyc))}")
    total = 0
    for sign, w in ((1, walk), (-1, other or walk[:1])):
        if not w or w[0] != w[-1]:
            return None, "the walk is not closed"
        for k, (p, q) in enumerate(zip(w, w[1:])):
            if p not in near:
                return None, f"step {k} leaves the image at {p}"
            if p != q and not adj(p, q):
                return None, f"step {k}, {p} to {q}, is not a unit step"
            total += sign * step(p, q)
    if not (total := total % P):
        return None, "φ takes the same value on both walks"
    return (total if total <= P // 2 else total - P), None
