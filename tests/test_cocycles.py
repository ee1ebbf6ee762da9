"""Cocycle certificates: a "no" without a search, checked apart from it.

A certificate (φ, γ) answers "no" with no search, so it must never answer
where a witness exists: the hypothesis test compares it with
`helpers.unfolded_nullhomotopy`, the slide-then-search route that does
not pass through `nullhomotopy`, and re-verifies every certificate with
`check_certificate`. A broken
certificate must fail that check and name the cycle or the step that
breaks. The counters pin the searches the certificates removed.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.homotopy as homotopy
from ditop.category import cat_exact
from ditop.cli import main
from ditop.cocycles import P, check_certificate, obstruction
from ditop.corpus import loop_image
from ditop.fileio import serialize_image, serialize_map
from ditop.homotopy import MapGraph
from ditop.images import CK, DigitalImage
from ditop.maps import DigitalMap

from helpers import frame_image, theta_image, unfolded_nullhomotopy

BOX = [(x, y) for x in range(4) for y in range(4)]


def _random_image(rng: random.Random, k: int, most: int) -> DigitalImage:
    while True:
        img = DigitalImage(rng.sample(BOX, rng.randint(1, most)), CK(k))
        if img.is_connected:
            return img


def _holed_image(rng: random.Random, k: int, most: int) -> DigitalImage:
    """Up to `most` points of the 4 x 4 box around a hole, so that the
    image holds a loop that does not contract: under c1, the 8 points
    around an interior point; under c2, the 6 points beside two adjacent
    interior points, a 6-cycle with no chord."""
    x, y = rng.choice((1, 2)), rng.choice((1, 2))
    if k == 1:
        hole = {(x, y)}
        steps = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    else:
        hole = {(x, y), rng.choice(((3 - x, y), (x, 3 - y)))}
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    ring = {(c + a, d + b) for c, d in hole for a, b in steps} - hole
    rest = [p for p in BOX if p not in hole | ring]
    while True:
        img = DigitalImage(ring | set(rng.sample(rest, rng.randint(
            0, most - len(ring)))), CK(k))
        if img.is_connected:
            return img


def _wander(rng: random.Random, f: DigitalMap, steps: int) -> DigitalMap:
    """f moved by `steps` random homotopy ticks: a random map homotopic
    to f, values merged and all."""
    graph, state = MapGraph(f.domain, f.codomain), f.value_indices
    for _ in range(steps):
        state = rng.choice(list(graph.neighbor_states(state)))
    return graph.map_of(state)


def _on_points(img: DigitalImage, phi) -> dict:
    pts = img.points
    return {(pts[u], pts[v]): c for (u, v), c in phi.items()}


def _checked(f: DigitalMap, hit, g: DigitalMap | None = None) -> int:
    phi, gamma = hit
    value, why = check_certificate(
        f.codomain, _on_points(f.codomain, phi),
        tuple(f.values[i] for i in gamma),
        None if g is None else tuple(g.values[i] for i in gamma))
    assert why is None and value, why
    return value


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from((1, 2)))
def test_no_certified_no_has_a_witness(seed, k):
    # random connected images of up to 9 points, random masks, random
    # maps homotopic to their inclusions and random maps out of small
    # images: a map with a certificate has no witness, and a map with a
    # witness has no certificate
    rng = random.Random(seed)
    img = (_holed_image if rng.random() < 0.5 else _random_image)(rng, k, 9)
    sub = rng.sample(range(len(img.points)), rng.randint(1, len(img.points)))
    incl = DigitalMap.inclusion_of(img, sum(1 << i for i in sub))
    moved = _wander(rng, incl, 3)
    small = _random_image(rng, rng.choice((1, 2)), 4)
    other = _wander(rng, DigitalMap(small, img, (0,) * len(small.points)), 4)
    for f in (incl, moved, other):
        hit = obstruction(f)
        if unfolded_nullhomotopy(f) is not None:
            assert hit is None
        elif hit is not None:
            _checked(f, hit)
    # pairs: a wander stays in its class, and a map g wandered from a
    # constant is nullhomotopic in the connected image, so the inclusion
    # is homotopic to g exactly when it is nullhomotopic
    assert obstruction(incl, moved) is None
    g = _wander(rng, DigitalMap(incl.domain, img,
                                (rng.randrange(len(img.points)),)
                                * len(incl.domain.points)), 2)
    hit = obstruction(incl, g)
    if unfolded_nullhomotopy(incl) is not None:
        assert hit is None
    elif hit is not None:
        _checked(incl, hit, g)


def test_every_loop_of_the_corpus_is_certified_and_checked():
    for img in (loop_image(), theta_image(), frame_image(3, 1),
                frame_image(4), frame_image(3, 1, 5)):
        ident = DigitalMap.identity(img)
        hit = obstruction(ident)
        assert hit is not None and _checked(ident, hit) in (1, -1)
    # the c2 frame of the 3 x 3 box contracts
    assert obstruction(DigitalMap.identity(frame_image())) is None


def _points_in(text: str) -> list[tuple[int, ...]]:
    return [tuple(map(int, m.split(", ")))
            for m in re.findall(r"\((-?\d+(?:, -?\d+)*)\)", text)]


def _certificate(img: DigitalImage):
    phi, gamma = obstruction(DigitalMap.identity(img))
    return _on_points(img, phi), tuple(img.points[i] for i in gamma)


@pytest.mark.parametrize("img, edges, kind", [
    # under c2 each corner of the 4 x 4 frame closes a 3-cycle
    (frame_image(4), [((0, 0), (1, 0)), ((0, 1), (1, 0)), ((2, 3), (3, 2)),
                      ((3, 3), (3, 2))], "3-cycle"),
    # a unit square beside the c1 frame: its edges lie on a 4-cycle only
    (DigitalImage(frame_image(3, 1).points + ((3, 0), (3, 1)), CK(1)),
     [((2, 0), (3, 0)), ((3, 0), (3, 1)), ((2, 1), (3, 1))], "4-cycle"),
], ids=["corners", "square"])
def test_a_changed_label_names_a_cycle_through_its_edge(img, edges, kind):
    good, walk = _certificate(img)
    assert check_certificate(img, good, walk)[1] is None
    for p, q in edges:
        bad = dict(good)
        bad[p, q] = (bad.get((p, q), 0) + 1) % P
        value, why = check_certificate(img, bad, walk)
        assert value is None and kind in why, why
        cycle = _points_in(why)
        assert {p, q} <= set(cycle), why


def test_a_broken_walk_names_the_step_that_breaks():
    img = frame_image(4)
    good, walk = _certificate(img)
    far = {p: next(q for q in img.points if q != p
                   and not img.adjacency.adjacent(p, q)) for p in walk}
    for k in range(1, len(walk) - 1):
        bent = walk[:k] + (far[walk[k - 1]],) + walk[k + 1:]
        value, why = check_certificate(img, good, bent)
        assert value is None and why.startswith(f"step {k - 1}, "), why
    outside = ((9, 9),) + walk[1:-1] + ((9, 9),)
    value, why = check_certificate(img, good, outside)
    assert why == "step 0 leaves the image at (9, 9)"
    assert check_certificate(img, good, walk[:-1])[1] == \
        "the walk is not closed"
    assert check_certificate(img, good, walk, walk)[1] == \
        "φ takes the same value on both walks"


def test_a_certificate_that_fails_its_check_is_a_fault(monkeypatch, capsys):
    def shifted(f, g=None):
        phi, gamma = real(f, g)
        return phi, gamma[1:]  # no longer closed

    real = homotopy.obstruction
    monkeypatch.setattr(homotopy, "obstruction", shifted)
    with pytest.raises(AssertionError, match="the walk is not closed"):
        main(["contractible", "corpus:H"])
    capsys.readouterr()


def test_contractible_and_homotopic_name_their_walks(tmp_path, capsys,
                                                     monkeypatch):
    loop = loop_image()
    (tmp_path / "h.img").write_text(serialize_image(loop), encoding="utf-8")
    flip = DigitalMap.from_points(loop, loop,
                                  [(x, -y) for x, y in loop.points])
    for name, f in (("f", DigitalMap.identity(loop)), ("g", flip)):
        (tmp_path / f"{name}.map").write_text(
            serialize_map(f, "h.img", "h.img"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    searches = []
    monkeypatch.setattr(MapGraph, "bfs", lambda *args: searches.append(args))
    assert main(["homotopic", "f.map", "g.map"]) == 2
    out = capsys.readouterr().out
    assert "homotopic: False" in out
    walk = ("(0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1), (0, 1), "
            "(0, 0), (0, -1)")
    assert (f"note: not homotopic: a cocycle's values on the two maps' "
            f"images of the closed walk {walk} differ by 2") in out
    assert main(["contractible", "h.img"]) == 2
    assert (f"note: not contractible: a cocycle takes the value 1 on the "
            f"closed walk {walk}") in capsys.readouterr().out
    assert searches == []


@pytest.mark.parametrize("img", [theta_image(), frame_image(3, 1, 5),
                                 frame_image(4)],
                         ids=["theta", "ring8_tail5", "ring4x4_c2"])
def test_cat_makes_no_search_that_finds_nothing(monkeypatch, img):
    # every inadmissible piece has a certificate, so no map-graph search
    # is exhausted; the commit before the certificates exhausted a search
    # for each inadmissible fold core
    found = []
    bfs = MapGraph.bfs

    def recording(self, *args):
        found.append(bfs(self, *args))
        return found[-1]

    monkeypatch.setattr(MapGraph, "bfs", recording)
    assert cat_exact(img).size == 2
    assert None not in found


def test_verify_paper_searches_no_map_graph(monkeypatch, capsys):
    # the commit before the certificates made 6 `MapGraph.bfs` calls
    calls = []
    bfs = MapGraph.bfs
    monkeypatch.setattr(MapGraph, "bfs",
                        lambda *args: calls.append(1) or bfs(*args))
    assert main(["verify-paper", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert calls == []
    assert "\ninconclusive: 0\nmatched: 26\nmismatched: 0\n" in out
