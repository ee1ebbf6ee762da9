"""Maps: continuity two ways, composition, isomorphisms, enumeration,
automorphism generators."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditop.cli import main
from ditop.corpus import cycle_image, loop_image
from ditop.images import CK, DigitalImage, interval_image, product_image
from ditop.homotopy import MapGraph
from ditop import maps
from ditop.category import cat
from ditop.maps import (DigitalMap, automorphism_generators,
                        continuity_violation, is_continuous)

from helpers import (all_states, automorphisms_oracle,
                     continuity_violation_oracle, continuous_maps,
                     find_isomorphism, is_continuous_subset_oracle,
                     is_digital_isomorphism, random_explicit_image,
                     random_grid_image, random_map_values,
                     transfer_matrix_count)


def test_map_values_must_land_in_the_codomain():
    seg = interval_image(0, 2)
    with pytest.raises(ValueError):
        DigitalMap.from_points(seg, seg, ((0,), (1,), (9,)))


def test_identity_and_constants_are_continuous():
    seg = interval_image(0, 3)
    assert is_continuous(DigitalMap.identity(seg))
    for t in seg.points:
        const = DigitalMap.from_points(seg, seg, (t,) * len(seg.points))
        assert is_continuous(const)


def test_continuity_violation_pinpoints_the_offending_edge():
    seg = interval_image(0, 2)
    jump = DigitalMap.from_points(seg, seg, ((0,), (2,), (2,)))
    bad = continuity_violation(jump)
    assert bad == ((0,), (1,))


def _random_image(rng: random.Random) -> DigitalImage:
    """A grid or explicit image, or a min or strong product of two."""
    def factor(size: int) -> DigitalImage:
        if rng.random() < 0.5:
            return random_explicit_image(rng, max_points=size)
        return random_grid_image(rng, max_points=size, k=rng.randint(1, 2),
                                 connected=False)

    if rng.random() < 0.5:
        return factor(6)
    return product_image(factor(3), factor(3), strong=rng.random() < 0.5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(("random", "continuous",
                                                 "one value moved")))
def test_continuity_violation_matches_the_adjacency_loop(seed, draw):
    rng = random.Random(seed)
    dom, cod = _random_image(rng), _random_image(rng)
    if draw == "random":
        values = random_map_values(rng, dom, cod)
    else:
        values = list(rng.choice(list(itertools.islice(
            continuous_maps(dom, cod), 40))).values)
        if draw == "one value moved":
            values[rng.randrange(len(values))] = rng.choice(cod.points)
    f = DigitalMap.from_points(dom, cod, tuple(values))
    assert continuity_violation(f) == continuity_violation_oracle(f)


@settings(max_examples=150)
@given(st.integers(0, 10_000))
def test_edge_characterization_equals_the_subset_definition(seed):
    rng = random.Random(seed)
    dom = random_grid_image(rng, max_points=6, connected=False)
    cod = random_grid_image(rng, max_points=6, connected=False)
    f = DigitalMap.from_points(dom, cod, random_map_values(rng, dom, cod))
    assert is_continuous(f) == is_continuous_subset_oracle(f)


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_composition_of_continuous_maps_is_continuous(seed):
    rng = random.Random(seed)
    seg = interval_image(0, 3)
    pool = list(itertools.islice(continuous_maps(seg, seg), 60))
    f = rng.choice(pool)
    g = rng.choice(pool)
    assert is_continuous(f.after(g))


def test_count_agrees_with_enumeration_on_a_small_interval():
    seg = interval_image(0, 2)
    listed = list(continuous_maps(seg, seg))
    every = [DigitalMap.from_points(seg, seg, vals)
             for vals in itertools.product(seg.points, repeat=3)]
    assert len(listed) == sum(is_continuous(f) for f in every)
    assert len(listed) == len({f.values for f in listed})
    for f in listed:
        assert is_continuous(f)


def test_loop_self_map_count_matches_the_transfer_matrix():
    # the loop is an 8-cycle, so its continuous self-maps are exactly the
    # closed 8-walks in the reflexive 8-cycle
    loop = loop_image()
    count = sum(1 for _ in all_states(MapGraph(loop, loop)))
    assert count == transfer_matrix_count(8) == 8872


def test_enumeration_is_lexicographic_and_deduplicated():
    seg = interval_image(0, 1)
    maps = list(continuous_maps(seg, seg))
    vals = [f.values for f in maps]
    assert vals == sorted(vals)
    assert len(vals) == len(set(vals))


def test_loop_and_rectangle_cycle_are_isomorphic():
    loop = loop_image()
    rect = cycle_image(8)
    f = find_isomorphism(loop, rect)
    assert f is not None
    ok, why = is_digital_isomorphism(f)
    assert ok, why


def test_no_isomorphism_between_different_shapes():
    assert find_isomorphism(interval_image(0, 3), cycle_image(4)) is None
    assert find_isomorphism(interval_image(0, 3), interval_image(0, 4)) is None


def test_bijection_with_torn_inverse_is_not_an_isomorphism():
    # two isolated points onto an edge: continuous forward, inverse tears
    dots = DigitalImage(((0,), (9,)), CK(1))
    seg = interval_image(0, 1)
    f = DigitalMap.from_points(dots, seg, ((0,), (1,)))
    assert is_continuous(f)
    ok, why = is_digital_isomorphism(f)
    assert not ok
    assert "inverse" in why


def test_inverse_of_a_bijection_round_trips():
    seg = interval_image(0, 2)
    flip = DigitalMap.from_points(seg, seg, ((2,), (1,), (0,)))
    back = flip.inverse()
    assert back.after(flip).values == DigitalMap.identity(seg).values


def test_inverse_demands_bijectivity():
    seg = interval_image(0, 2)
    squash = DigitalMap.from_points(seg, seg, ((0,), (0,), (1,)))
    assert not squash.is_bijective()
    with pytest.raises(ValueError):
        squash.inverse()


def test_solver_maps_make_no_point_checking_construction(monkeypatch,
                                                         capsys):
    checked = []  # values checked by each DigitalMap.from_points call
    indexed = []  # points looked up by DigitalImage.index
    from_points, index = DigitalMap.from_points, DigitalImage.index

    def counting_from_points(domain, codomain, values):
        checked.append(len(values))
        return from_points(domain, codomain, values)

    def counting_index(self, p):
        indexed.append(p)
        return index(self, p)

    monkeypatch.setattr(DigitalMap, "from_points",
                        staticmethod(counting_from_points))
    monkeypatch.setattr(DigitalImage, "index", counting_index)
    DigitalMap.from_mapping(interval_image(0, 1), interval_image(0, 1),
                            {(0,): (1,), (1,): (1,)})
    assert checked == [2]
    # before maps were kept as indices, these commands rebuilt 137, 5 and
    # 60 maps from points and made 1,624, 24 and 1,376 index calls
    for argv, ceiling in ((["cat", "corpus:H"], 221),
                          (["contractible", "corpus:cycle:4"], 2),
                          (["group-scan", "-p", "5"], 206)):
        checked.clear()
        indexed.clear()
        assert main(argv + ["--json"]) == 0
        capsys.readouterr()
        assert checked == [], argv
        assert len(indexed) <= ceiling, argv


# ---- automorphism generators ----

def _closure(generators, n: int) -> set[tuple[int, ...]]:
    """The group the permutations generate, listed by composing."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for g in generators:
            b = tuple(g[v] for v in a)
            if b not in group:
                group.add(b)
                todo.append(b)
    return group


def _box_subsets(k: int):
    box = [(x, y) for x in range(3) for y in range(3)]
    for size in range(1, len(box) + 1):
        for pts in itertools.combinations(box, size):
            img = DigitalImage(pts, CK(k))
            if img.is_connected:
                yield img


@pytest.mark.parametrize("k", [1, 2])
def test_generators_generate_the_whole_group_on_every_box_subset(k):
    for img in _box_subsets(k):
        assert _closure(automorphism_generators(img), len(img.points)) \
            == automorphisms_oracle(img), img.points


def test_generators_generate_the_whole_group_on_small_images():
    images = [cycle_image(4), loop_image(),
              DigitalImage(((0, 0), (0, 1), (1, 0), (1, 1)), CK(2))]
    rng = random.Random(23)
    images += [random_explicit_image(rng) for _ in range(40)]
    for img in images:
        assert _closure(automorphism_generators(img), len(img.points)) \
            == automorphisms_oracle(img), img
    # the c2 square is K4: all 24 permutations
    assert len(automorphisms_oracle(images[2])) == 24


def test_generators_never_list_the_group(monkeypatch):
    # the c3 cube is K8, whose group has 40,320 elements; one
    # first-solution search per pair of points finds 28 generators
    searches = []
    search = maps.backtrack

    def counting(*args):
        searches.append(args)
        return search(*args)

    cube = DigitalImage(tuple(itertools.product(range(2), repeat=3)), CK(3))
    monkeypatch.setattr(maps, "backtrack", counting)
    generators = automorphism_generators(cube)
    monkeypatch.undo()
    assert len(searches) <= 28 and len(generators) <= 28
    assert cat(cube) == 1
