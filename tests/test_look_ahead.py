"""Look-ahead in the one backtracker, against the earlier-links-only
search it prunes.

`maps.backtrack` forward-checks and restores arc consistency only when a
caller lists links to later positions, and it may only drop values that
extend the chosen prefix to no tuple. So with forward links it must
yield the tuples of the earlier links alone, in the same order, and
`find_section`, which passes both directions, must find the same first
section as a search that sees only the earlier ones. The work the
look-ahead saves on loops is counted here in link-table lookups.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.complexity as complexity
import ditop.pathspace as pathspace
from ditop.cli import main
from ditop.complexity import find_section
from ditop.images import CK, DigitalImage
from ditop.maps import backtrack
from ditop.pathspace import EndpointFibration, PairedFibration

from helpers import mask, random_grid_image, section_points

_BITS = 8


def _earlier_only(links):
    return [[(j, table) for j, table in row if j < i]
            for i, row in enumerate(links)]


@st.composite
def _networks(draw):
    """Roots of at most 8 bits on at most 6 positions, and per pair of
    positions no link, a link from the later to the earlier one, or one
    random relation listed in both positions' lists."""
    n = draw(st.integers(1, 6))
    mask = st.integers(0, (1 << _BITS) - 1)
    roots = [draw(mask) for _ in range(n)]
    links: list[list] = [[] for _ in range(n)]
    for j in range(n):
        for i in range(j):
            kind = draw(st.sampled_from(("none", "earlier", "both")))
            if kind == "none":
                continue
            # by_i[a]: the values of j related to value a of i
            by_i = draw(st.lists(mask, min_size=_BITS, max_size=_BITS))
            links[j].append((i, by_i))
            if kind == "both":
                links[i].append((j, [sum(1 << a for a in range(_BITS)
                                         if by_i[a] >> b & 1)
                                     for b in range(_BITS)]))
    return roots, links


@settings(max_examples=300, deadline=None)
@given(_networks())
def test_forward_links_keep_the_tuples_and_their_order(network):
    roots, links = network
    assert list(backtrack(roots, links)) \
        == list(backtrack(roots, _earlier_only(links)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
       st.integers(0, 2), st.booleans())
def test_find_section_is_the_search_without_reverse_links(seed, k, n, m,
                                                          strong):
    rng = random.Random(seed)
    fib = EndpointFibration(random_grid_image(rng, max_points=5, k=k),
                            n, m, strong=strong)
    left = EndpointFibration(random_grid_image(rng, max_points=4, k=k),
                             1, m, strong=strong)
    right = EndpointFibration(random_grid_image(rng, max_points=3, k=k),
                              1, min(m, 1), strong=strong)
    for f in (fib, PairedFibration(left, right)):
        pts = f.product.points
        piece = mask(f.product,
                     rng.sample(pts, rng.randint(1, min(4, len(pts)))))
        got = find_section(f, piece)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexity, "backtrack", lambda roots, links:
                          backtrack(roots, _earlier_only(links)))
            want = find_section(f, piece)
        if want is None:
            assert got is None
        else:
            assert got == want and got.wedges == want.wedges


class _CountingTable:
    """A link table that counts its lookups."""

    def __init__(self, table, counts: dict):
        self.table = table
        self.counts = counts

    def __getitem__(self, a: int) -> int:
        self.counts["lookups"] += 1
        return self.table[a]


def _count_lookups(monkeypatch) -> dict:
    counts = {"lookups": 0}
    step_masks = pathspace._Masks.step_masks
    monkeypatch.setattr(
        pathspace._Masks, "step_masks",
        lambda self, earlier: _CountingTable(step_masks(self, earlier), counts))
    return counts


# command -> link-table lookups of its section searches; the commit
# before look-ahead made 67,411 and 7,051, thrashing on the loop
LOOKUPS = {
    "genus corpus:cycle:14 -n 1 --m 2": 153,
    "genus corpus:cycle:4 -n 1 --m 5 --mode strong": 247,
}


def test_look_ahead_stops_the_thrash_on_loops(monkeypatch, capsys):
    counts = _count_lookups(monkeypatch)
    for command, want in LOOKUPS.items():
        counts["lookups"] = 0
        assert main(command.split() + ["--json"]) == 0
        capsys.readouterr()
        assert counts["lookups"] == want, command


def test_the_slow_strong_piece_keeps_its_section(monkeypatch):
    # fibers of 619 to 1,699 wedges; the commit before look-ahead took
    # seconds here and found this section, pinned by digest
    base = DigitalImage(((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)), CK(2))
    fib = EndpointFibration(base, 2, 3, strong=True)
    piece = [(2, 0, 2, 1), (2, 2, 2, 2), (1, 0, 1, 0), (2, 1, 2, 1)]
    counts = _count_lookups(monkeypatch)
    sw = find_section(fib, mask(fib.product, piece))
    # the section's points, as the commit before look-ahead wrote them
    assert hashlib.sha256(repr(section_points(fib, sw)).encode()).hexdigest() \
        == "b2d4bcc3ff7d46b12badc9a3b7f23f65bea9f3cf905fbfd21d546c455b7e1151"
    assert counts["lookups"] == 2_105  # 17,860,631 before look-ahead
