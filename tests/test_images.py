"""Images: adjacency rules, connectivity, products, induced subimages."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditop.images import (CK, DigitalImage, Explicit, ck_adjacent,
                          induced_subimage, interval_image, power_image,
                          product_image)

from helpers import literal_ck_adjacent, naive_components, random_grid_image


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
    ours = set(img.components)
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
    for mode, oracle in (("min", _min_product_adjacent),
                         ("strong", _strong_product_adjacent)):
        prod = product_image(x, y, mode)
        for u in prod.points:
            for v in prod.points:
                assert prod.adjacency.adjacent(u, v) == oracle(u, v, x, y), \
                    (mode, u, v)


def test_min_product_edges_are_a_subset_of_strong_edges():
    x = interval_image(0, 2)
    lo = product_image(x, x, "min")
    hi = product_image(x, x, "strong")
    assert set(lo.edges()) <= set(hi.edges())


def test_product_of_intervals_under_min_adjacency_is_the_grid_graph():
    seg = interval_image(0, 1)
    square = product_image(seg, seg, "min")
    assert len(square.points) == 4
    assert len(square.edge_index_pairs) == 4
    degrees = sorted(len(square.neighbors(p)) for p in square.points)
    assert degrees == [2, 2, 2, 2]


def test_power_image_matches_iterated_products():
    seg = interval_image(0, 1)
    cubed = power_image(seg, 3, "min")
    manual = product_image(product_image(seg, seg, "min"), seg, "min")
    assert cubed.points == manual.points
    assert set(cubed.edges()) == set(manual.edges())


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
        for q in img.neighbors(p):
            assert (p, q) in from_edges
    assert len(from_edges) == 2 * len(img.edge_index_pairs)


def test_lex_shortest_path_is_shortest_and_valid():
    seg = interval_image(0, 4)
    path = seg.lex_shortest_path((0,), (4,))
    assert path[0] == (0,)
    assert path[-1] == (4,)
    assert len(path) == 5
    for a, b in zip(path, path[1:]):
        assert seg.adjacency.adjacent(a, b)
