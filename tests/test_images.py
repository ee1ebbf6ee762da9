"""Images: adjacency rules, connectivity, products, induced subimages."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditop.cli import main
from ditop.images import (CK, DigitalImage, Explicit, ck_adjacent,
                          induced_subimage, interval_image, power_image,
                          product_image)

from helpers import (all_pairs_neighbor_index, candidate_neighbor_index,
                     least_shortest_path_oracle, lex_shortest_path,
                     literal_ck_adjacent, mask_points, neighbors,
                     naive_components, random_explicit_image,
                     random_grid_image)


points2d = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
points3d = st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-1, 1))


@given(points2d, points2d, st.integers(1, 2))
def test_ck_adjacency_matches_the_literal_definition_2d(p, q, k):
    assert ck_adjacent(p, q, k) == literal_ck_adjacent(p, q, k)


@given(points3d, points3d, st.integers(1, 3))
def test_ck_adjacency_matches_the_literal_definition_3d(p, q, k):
    assert ck_adjacent(p, q, k) == literal_ck_adjacent(p, q, k)


@given(points2d, points2d, st.integers(1, 2))
def test_ck_adjacency_is_symmetric_and_irreflexive(p, q, k):
    assert ck_adjacent(p, q, k) == ck_adjacent(q, p, k)
    assert not ck_adjacent(p, p, k)


def test_c1_is_4_adjacency_and_c2_is_8_adjacency():
    center = (0, 0)
    ring = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != center]
    c1 = [q for q in ring if ck_adjacent(center, q, 1)]
    c2 = [q for q in ring if ck_adjacent(center, q, 2)]
    assert len(c1) == 4
    assert len(c2) == 8


def test_explicit_adjacency_symmetrizes_and_rejects_self_loops():
    adj = Explicit.of([((0,), (1,)), ((1,), (0,))])
    assert adj.adjacent((0,), (1,))
    assert adj.adjacent((1,), (0,))
    assert len(adj.edges) == 1
    with pytest.raises(ValueError):
        Explicit.of([((2,), (2,))])


def test_points_are_deduplicated_and_canonically_ordered():
    img = DigitalImage(((1,), (0,), (1,)), CK(1))
    assert img.points == ((0,), (1,))


def test_mixed_dimensions_are_rejected():
    with pytest.raises(ValueError):
        DigitalImage(((0,), (0, 1)), CK(1))


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_components_agree_with_union_find(seed, k):
    rng = random.Random(seed)
    img = random_grid_image(rng, max_points=9, k=k, connected=False)
    ours = {frozenset(mask_points(img, comp)) for comp in img.components}
    naive = set(naive_components(img.points, img.edges()))
    assert ours == naive


def test_interval_image_shape():
    seg = interval_image(3, 7)
    assert seg.points == ((3,), (4,), (5,), (6,), (7,))
    assert seg.is_connected
    assert seg.diameter == 4
    assert len(seg.edge_index_pairs) == 4


def test_diameter_refuses_disconnected_images():
    img = DigitalImage(((0,), (5,)), CK(1))
    assert not img.is_connected
    with pytest.raises(ValueError):
        img.diameter


def _min_product_adjacent(u, v, x, y):
    d = x.dim
    a1, b1 = u[:d], u[d:]
    a2, b2 = v[:d], v[d:]
    one = a1 == a2 and y.adjacency.adjacent(b1, b2)
    other = b1 == b2 and x.adjacency.adjacent(a1, a2)
    return one or other


def _strong_product_adjacent(u, v, x, y):
    d = x.dim
    a1, b1 = u[:d], u[d:]
    a2, b2 = v[:d], v[d:]
    if u == v:
        return False
    left_ok = a1 == a2 or x.adjacency.adjacent(a1, a2)
    right_ok = b1 == b2 or y.adjacency.adjacent(b1, b2)
    return left_ok and right_ok


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_product_adjacency_matches_the_definitions(seed):
    rng = random.Random(seed)
    x = random_grid_image(rng, max_points=4, connected=False)
    y = interval_image(0, rng.randint(0, 2))
    for strong, oracle in ((False, _min_product_adjacent),
                           (True, _strong_product_adjacent)):
        prod = product_image(x, y, strong=strong)
        for u in prod.points:
            for v in prod.points:
                assert prod.adjacency.adjacent(u, v) == oracle(u, v, x, y), \
                    (strong, u, v)


def test_min_product_edges_are_a_subset_of_strong_edges():
    x = interval_image(0, 2)
    lo = product_image(x, x)
    hi = product_image(x, x, strong=True)
    assert set(lo.edges()) <= set(hi.edges())


def test_product_of_intervals_under_min_adjacency_is_the_grid_graph():
    seg = interval_image(0, 1)
    square = product_image(seg, seg)
    assert len(square.points) == 4
    assert len(square.edge_index_pairs) == 4
    degrees = sorted(len(neighbors(square, p)) for p in square.points)
    assert degrees == [2, 2, 2, 2]


def test_power_image_matches_iterated_products():
    seg = interval_image(0, 1)
    cubed = power_image(seg, 3)
    manual = product_image(product_image(seg, seg), seg)
    assert cubed.points == manual.points
    assert set(cubed.edges()) == set(manual.edges())


def test_derived_images_make_no_normalising_construction(monkeypatch,
                                                          capsys):
    built = []  # points normalised by each DigitalImage construction
    init = DigitalImage.__init__

    def counting(self, points, adjacency):
        built.append(len(points))
        init(self, points, adjacency)

    monkeypatch.setattr(DigitalImage, "__init__", counting)
    seg = interval_image(0, 1)
    assert built == [2]
    cubed = power_image(seg, 3)
    strong = product_image(cubed, seg, strong=True)
    # lists and floats still land on the image's own int tuples
    sub = induced_subimage(strong, [[0, 1, 0, 1], (1.0, 1, 1, 0), (0, 0, 0, 0)])
    assert built == [2]
    assert power_image(seg, 1) is seg
    assert sub.points == ((0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 0))
    assert all(type(c) is int for p in sub.points for c in p)
    own = {id(p) for p in strong.points}
    assert all(id(p) in own for p in sub.points)
    with pytest.raises(ValueError, match="is not in the image"):
        induced_subimage(strong, [(0, 0, 0, 0), (0, 0, 0, 2)])
    # on the command, only the corpus loop is normalised (twice, 8 points)
    built.clear()
    assert main(["tc", "corpus:H", "-n", "4", "--json"]) == 0
    capsys.readouterr()
    assert built == [8, 8]


def test_induced_subimage_keeps_exactly_the_inner_edges():
    seg = interval_image(0, 4)
    sub = induced_subimage(seg, [(0,), (1,), (3,)])
    assert sub.points == ((0,), (1,), (3,))
    assert set(sub.edges()) == {((0,), (1,))}


def test_neighbors_and_edges_are_consistent():
    rng = random.Random(7)
    img = random_grid_image(rng, max_points=9, connected=False)
    from_edges = set()
    for a, b in img.edges():
        from_edges.add((a, b))
        from_edges.add((b, a))
    for p in img.points:
        for q in neighbors(img, p):
            assert (p, q) in from_edges
    assert len(from_edges) == 2 * len(img.edge_index_pairs)


def test_lex_shortest_path_is_shortest_and_valid():
    seg = interval_image(0, 4)
    path = lex_shortest_path(seg, (0,), (4,))
    assert path[0] == (0,)
    assert path[-1] == (4,)
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert seg.adjacency.adjacent(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.booleans())
def test_lex_shortest_path_is_the_least_shortest_path(seed, k, connected):
    img = random_grid_image(random.Random(seed), k=k, connected=connected)
    for a in img.points:
        for b in img.points:
            want = least_shortest_path_oracle(img, a, b)
            if want is None:
                with pytest.raises(ValueError, match="no path"):
                    lex_shortest_path(img, a, b)
            else:
                assert lex_shortest_path(img, a, b) == want


# ---- generated neighbour tables against the all-pairs oracle ----

def _random_ck_image(rng: random.Random, r: int, k: int) -> DigitalImage:
    """A random subset of {0..3}^r under c_k; its size ranges from below
    the 3^r - 1 unit steps of Z^r (the table scans) to above (it steps)."""
    box = list(itertools.product(range(4), repeat=r))
    return DigitalImage(tuple(rng.sample(box, rng.randint(1, len(box)))),
                        CK(k))


def _random_factor(rng: random.Random) -> DigitalImage:
    if rng.random() < 0.5:
        return random_explicit_image(rng, max_points=5)
    r = rng.randint(1, 2)
    box = sorted({(x, y)[:r] for x in range(3) for y in range(3)})
    return DigitalImage(tuple(rng.sample(box, rng.randint(1, min(5, len(box))))),
                        CK(rng.randint(1, r)))


@pytest.mark.parametrize("r, k", [(r, k) for r in range(1, 5)
                                  for k in range(1, r + 1)])
@settings(max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_generated_ck_tables_equal_the_all_pairs_tables(r, k, seed):
    img = _random_ck_image(random.Random(seed), r, k)
    assert img.neighbor_index == all_pairs_neighbor_index(img)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_generated_explicit_tables_equal_the_all_pairs_tables(seed):
    img = random_explicit_image(random.Random(seed), max_points=12)
    assert img.neighbor_index == all_pairs_neighbor_index(img)


def _random_source(rng: random.Random, depth: int) -> DigitalImage:
    """A c_k or explicit image or, below `depth`, a min or strong product
    of two such sources, or an induced subimage of one. Past 16 points a
    source is cut down to an induced subimage of at most 12, so products
    of products stay small."""
    pick = rng.randrange(4) if depth else rng.randrange(2)
    if pick == 0:
        img = random_explicit_image(rng, max_points=4)
    elif pick == 1:
        img = _random_factor(rng)
    elif pick == 2:
        img = product_image(_random_source(rng, depth - 1),
                            _random_source(rng, depth - 1),
                            strong=rng.random() < 0.5)
    else:
        img = _random_source(rng, depth - 1)
        img = induced_subimage(img, rng.sample(img.points,
                                               rng.randint(1, len(img))))
    if len(img) > 16:
        img = induced_subimage(img, rng.sample(img.points, rng.randint(1, 12)))
    return img


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_product_tables_equal_the_all_pairs_tables(seed):
    # factor-built and restricted tables against the pair tests and the
    # candidate route they replaced; also three-factor powers of a source
    # cut to at most 4 points, and products with a one-point factor,
    # whose blocks have no left neighbours (or hold one index each)
    rng = random.Random(seed)
    x, y = _random_source(rng, 2), _random_source(rng, 2)
    z = induced_subimage(x, rng.sample(x.points, min(4, len(x))))
    one = induced_subimage(y, [rng.choice(y.points)])
    for strong in (False, True):
        prod = product_image(x, y, strong=strong)
        sub = induced_subimage(
            prod, rng.sample(prod.points, rng.randint(1, len(prod))))
        for img in (x, y, prod, sub, power_image(z, 3, strong=strong),
                    product_image(one, y, strong=strong),
                    product_image(x, one, strong=strong),
                    power_image(one, 3, strong=strong)):
            assert img.neighbor_index == all_pairs_neighbor_index(img) \
                == candidate_neighbor_index(img)


def _c9_image() -> DigitalImage:
    """20 points of {0, 1}^9: any two are c_9-adjacent, and c_9 has
    3^9 - 1 steps, far more than the points."""
    return DigitalImage(tuple(tuple((i * 25 >> c) & 1 for c in range(9))
                              for i in range(20)), CK(9))


def _bound_cases() -> dict[str, tuple[DigitalImage, int, DigitalImage]]:
    """Images whose candidates could outnumber their points, each with the
    number of points its table build visits and the image whose points
    bound every visited level. A product's table comes from its factors'
    tables, so its build visits only the factors' points, each factor once;
    an induced subimage restricts its parent's table, so its build visits
    the parent's factors and is bounded by the parent."""
    c9 = _c9_image()
    strong = product_image(c9, c9, strong=True)
    k20 = DigitalImage(tuple((i,) for i in range(20)), Explicit.of(
        ((i,), (j,)) for i in range(20) for j in range(i)))
    k20_by_2 = product_image(k20, interval_image(0, 1))
    min_product = product_image(c9, c9)
    diagonal = induced_subimage(strong, (p + p for p in c9.points))
    corner = induced_subimage(k20_by_2, [(0, 0), (1, 0)])
    return {"c9": (c9, 20, c9),
            "min product": (min_product, 20, min_product),
            "strong diagonal": (diagonal, 20, diagonal),
            "explicit corner": (corner, 20 + 2, k20_by_2)}


@pytest.mark.parametrize("case", sorted(_bound_cases()))
def test_no_point_examines_more_candidates_than_the_image_has_points(
        case, monkeypatch):
    img, visits, scope = _bound_cases()[case]
    seen = []  # per point at every level: (points at that level, examined)
    for kind in (CK, Explicit):
        def counted(self, points, generate=kind.candidates):
            for cands in generate(self, points):
                # a point without candidates scans the points of its level
                seen.append((len(points),
                             len(points) if cands is None else len(cands)))
                yield cands
        monkeypatch.setattr(kind, "candidates", counted)
    assert img.neighbor_index == all_pairs_neighbor_index(img)
    assert len(seen) == visits
    assert all(examined <= size <= len(scope) for size, examined in seen)
