"""Higher complexity: reference values, witnesses, genus, products."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ditop.category as category
import ditop.complexity as complexity
import ditop.covers as covers
import ditop.homotopy as homotopy
from ditop.category import cat_exact
from ditop.complexity import (CoverImpossible, SectionWitness,
                              TheoremViolation, constant_section,
                              find_section, product_of_sections,
                              schwarz_genus, tc_chain, tc_n,
                              tc_upper_via_group, verify_section)
from ditop.corpus import (LOOP_LETTERS, cycle_image, loop_cover, loop_image,
                          loop_rotation_table)
from ditop.groups import is_topological_group
from ditop.homotopy import BudgetExhausted, MapGraph, budget, contraction
from ditop.images import CK, DigitalImage, interval_image
from ditop.pathspace import EndpointFibration, PairedFibration

import helpers
from helpers import (cycle_rotation_table, find_section_oracle, loop_bundle,
                     mask, per_target_piece_track)


def test_tc_one_is_always_one():
    for img in (interval_image(0, 3), loop_image(), cycle_image(4)):
        r = tc_n(img, 1)
        assert r.exact and r.value == 1


def test_tc_two_of_an_interval_is_one():
    r = tc_n(interval_image(0, 1), 2)
    assert r.exact and r.value == 1


def test_tc_two_of_the_unit_square_cycle_is_one():
    # contractible, so one motion-planning rule suffices
    r = tc_n(cycle_image(4), 2)
    assert r.exact and r.value == 1


def test_tc_two_of_the_loop_is_two_with_verified_sections():
    loop, table, cover = loop_bundle()
    r = tc_n(loop, 2, table=table, cover=cover)
    assert r.exact and r.value == 2
    wits = list(r.witness)
    assert len(wits) == 2
    fib = EndpointFibration(loop, 2, 4)
    covered = set()
    for sw in wits:
        ok, why = verify_section(fib, sw)
        assert ok, why
        covered.update(sw.piece)
    assert covered == set(range(64))
    assert len(fib.product.points) == 64


def test_tc_three_of_the_loop_is_bracketed_by_two_and_four():
    loop, table, cover = loop_bundle()
    r = tc_n(loop, 3, table=table, cover=cover)
    assert not r.exact
    assert r.lower == 2
    assert r.upper == 4


def test_tc_chain_lower_bounds_are_monotone():
    loop, table, cover = loop_bundle()
    chain = tc_chain(loop, 3, table=table, cover=cover)
    assert [r.lower for r in chain] == sorted(r.lower for r in chain)
    assert chain[0].value == 1
    assert chain[1].value == 2
    assert chain[2].upper == 4


def test_group_route_piece_count_matches_the_categorical_cover():
    loop = loop_image()
    table = loop_rotation_table()
    count, wits, m = tc_upper_via_group(loop, table, 2)
    assert count == len(loop_cover())
    assert m == 4
    fib = EndpointFibration(loop, 2, m)
    for sw in wits:
        ok, why = verify_section(fib, sw)
        assert ok, why


def test_the_group_route_searches_once_per_piece_without_slides(monkeypatch):
    # with every slide disabled each piece takes the search branch, where
    # one search to the identity's constant gives the least total that
    # the oracle finds with one search per target
    for module in (complexity, homotopy):
        monkeypatch.setattr(module, "slides", lambda f: iter(()))
    monkeypatch.setattr(helpers, "slide_nullhomotopy", lambda f, t: None)
    searches = []
    bfs = MapGraph.bfs

    def counted(self, *args):
        searches.append(self.domain)
        return bfs(self, *args)

    monkeypatch.setattr(MapGraph, "bfs", counted)
    loop, table = loop_image(), loop_rotation_table()
    count, wits, m = tc_upper_via_group(loop, table, 3, loop_cover())
    assert (len(searches), count, m) == (2, 4, 4)
    complexity._certify(EndpointFibration(loop, 3, m), wits, "search branch")
    e = table.identity
    tracks = [complexity._piece_track(loop, mask(loop, piece),
                                      table.identity_index)
              for piece in loop_cover()]
    oracle = [per_target_piece_track(loop, piece, e) for piece in loop_cover()]
    assert [t[0] for t in tracks] == [o[0] for o in oracle] == [3, 4]
    # the one change of behaviour: a smaller target that ties the identity
    # on total steps is no longer chosen, the track ends at the identity
    afgh = loop_cover()[1]
    assert afgh == tuple(LOOP_LETTERS[x] for x in "afgh")
    assert tracks[1][0] == 4 and loop.points[tracks[1][1]] == (0, 0)
    assert oracle[1] == (4, (0, -1))


def test_exact_sweep_agrees_with_the_group_route_on_the_loop(monkeypatch):
    # the 64-point product is over the sweep guard, so drive the sweep on a
    # smaller certified case instead: the 4-cycle, whose TC_2 is 1 both ways
    monkeypatch.setattr(covers, "SWEEP_LIMIT", 16)
    sq = cycle_image(4)
    fib = EndpointFibration(sq, 2, sq.diameter)
    k, wits = schwarz_genus(fib)
    assert k == 1
    for sw in wits:
        ok, why = verify_section(fib, sw)
        assert ok, why


def test_sections_verify_and_tears_are_caught():
    seg = interval_image(0, 1)
    fib = EndpointFibration(seg, 2, 1)
    sw = find_section(fib, mask(fib.product, fib.product.points))
    assert sw is not None
    ok, why = verify_section(fib, sw)
    assert ok, why
    # swap two wedges to tear the rule
    if len(sw.wedges) >= 2:
        torn = SectionWitness(sw.piece, (sw.wedges[1], sw.wedges[0])
                              + sw.wedges[2:])
        ok, why = verify_section(fib, torn)
        assert not ok


def test_constant_section_covers_contractible_pieces():
    seg = interval_image(0, 2)
    fib = EndpointFibration(seg, 1, 2)
    sw = constant_section(fib)
    ok, why = verify_section(fib, sw)
    assert ok, why
    assert sw.piece == tuple(range(len(fib.product.points)))


def test_genus_raises_cover_impossible_when_arms_cannot_reach():
    seg = interval_image(0, 2)
    fib = EndpointFibration(seg, 2, 0)
    with pytest.raises(CoverImpossible):
        schwarz_genus(fib)


def test_lowering_the_sweep_limit_moves_every_exact_route(monkeypatch):
    loop, table, cover = loop_bundle()
    seg = interval_image(0, 2)
    # at the default limit the 9-point product is swept: arms of length 1
    # are too short for the contractible-base route
    assert "exact sweep over the product" in tc_n(seg, 2, m=1).notes
    monkeypatch.setattr(covers, "SWEEP_LIMIT", 3)
    r = tc_n(seg, 2, m=1)
    assert (r.lower, r.upper) == (1, None)
    assert "exact sweep over the product" not in r.notes
    # arms that cannot reach every endpoint pair fail before any route
    with pytest.raises(CoverImpossible):
        tc_n(interval_image(0, 1), 2, m=0)
    monkeypatch.setattr(covers, "SWEEP_LIMIT", 7)
    with pytest.raises(ValueError, match="limited to 7 points"):
        cat_exact(loop)
    with pytest.raises(ValueError, match="limited to 7 points"):
        schwarz_genus(EndpointFibration(interval_image(0, 2), 2, 2))
    # past the limit the refuted contraction still bounds the category
    r = tc_n(loop, 2, table=table, cover=cover)
    assert r.notes[0] == "lower 2: the base does not contract, so cat >= 2"
    assert (r.lower, r.upper) == (2, 2)
    chain = tc_chain(loop, 2, table=table, cover=cover)
    assert (chain[1].lower, chain[1].upper) == (2, 2)


def test_tc_past_the_sweep_limit_skips_the_group_route_without_a_cover():
    # a 16-point cycle with its rotation group: no categorical cover to
    # translate, so the bracket is noted, not the sweep's refusal raised
    table = cycle_rotation_table(16)
    assert is_topological_group(table).ok
    r = tc_n(table.image, 2, table=table)
    assert (r.lower, r.upper) == (2, None)
    assert r.notes[-1] == ("group route unavailable: no cover past the "
                           "sweep limit")


def test_genus_of_the_interval_endpoint_map_is_one():
    seg = interval_image(0, 1)
    for n in (1, 2, 3):
        fib = EndpointFibration(seg, n, 1)
        k, wits = schwarz_genus(fib)
        assert k == 1
        ok, why = verify_section(fib, wits[0])
        assert ok, why


def test_product_of_sections_is_subadditive_on_intervals():
    seg = interval_image(0, 1)
    left = EndpointFibration(seg, 1, 1)
    right = EndpointFibration(seg, 2, 1)
    kl, wl = schwarz_genus(left)
    kr, wr = schwarz_genus(right)
    pair = PairedFibration(left, right)
    pieces = product_of_sections(pair, wl, wr)
    assert len(pieces) == kl * kr
    assert len(pieces) <= kl + kr
    covered = set()
    for sw in pieces:
        covered.update(sw.piece)
    assert covered == set(range(len(pair.product.points)))


def test_product_of_sections_rejects_a_non_covering_family():
    seg = interval_image(0, 1)
    left = EndpointFibration(seg, 1, 1)
    right = EndpointFibration(seg, 1, 1)
    _, wl = schwarz_genus(left)
    half = SectionWitness(wl[0].piece[:1], wl[0].wedges[:1])
    pair = PairedFibration(left, right)
    with pytest.raises(TheoremViolation, match="product of sections: the "
                                               "pieces miss the product point"):
        product_of_sections(pair, (half,), wl)


def test_tc_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tc_n(loop_image(), 0)
    from ditop.images import DigitalImage, CK
    broken = DigitalImage(((0,), (5,)), CK(1))
    with pytest.raises(ValueError):
        tc_n(broken, 2)


def test_genus_sections_come_from_the_cover_search_and_verify(monkeypatch):
    searched = []
    oracles = []
    search, make = complexity.find_section, complexity.AdmissibilityOracle

    def counting_search(*args, **kwargs):
        searched.append(args[1])
        return search(*args, **kwargs)

    def recording_oracle(*args, **kwargs):
        oracles.append(make(*args, **kwargs))
        return oracles[-1]

    monkeypatch.setattr(complexity, "find_section", counting_search)
    monkeypatch.setattr(complexity, "AdmissibilityOracle", recording_oracle)
    for img, n, m, strong in ((interval_image(0, 2), 2, 1, False),
                              (interval_image(0, 2), 2, 1, True),
                              (interval_image(0, 3), 1, 1, False),
                              (cycle_image(4), 1, 1, True),
                              (loop_image(), 1, 2, False)):
        searched.clear()
        fib = EndpointFibration(img, n, m, strong=strong)
        k, wits = schwarz_genus(fib)
        assert k == len(wits)
        # one search per subset the oracle decided, none repeated after
        assert len(searched) == oracles[-1].calls
        covered = set()
        for sw in wits:
            ok, why = verify_section(fib, sw)
            assert ok, why
            covered.update(sw.piece)
        assert covered == set(range(len(fib.product.points)))


def test_genus_rejects_a_section_that_fails_verification(monkeypatch):
    search = complexity.find_section

    def tearing_search(fib, piece):
        sw = search(fib, piece)
        if sw is None or len(sw.wedges) < 2:
            return sw
        return SectionWitness(sw.piece, sw.wedges[1:] + sw.wedges[:1])

    monkeypatch.setattr(complexity, "find_section", tearing_search)
    with pytest.raises(TheoremViolation,
                       match="sectional genus: a section failed verification"):
        schwarz_genus(EndpointFibration(interval_image(0, 2), 2, 1))


def test_cat_searches_inside_tc_spend_the_callers_budget(monkeypatch):
    # every search of tc, the category's included, draws on one ledger
    sizes = helpers.record_search_states(monkeypatch)
    loop, table, _ = loop_bundle()
    with budget(1_000_000) as ledger:
        tc_chain(loop, 2)
        tc_upper_via_group(loop, table, 2)
    assert len(sizes) > 1 and ledger.spent == sum(sizes)
    # a cap that each search fits alone but all of them do not
    assert max(sizes) < sum(sizes) - 1
    with budget(sum(sizes) - 1), pytest.raises(BudgetExhausted):
        tc_chain(loop, 2)
        tc_upper_via_group(loop, table, 2)


def test_tc_notes_the_contractible_base_route_it_could_not_settle():
    with budget(10):
        r = tc_n(cycle_image(16), 2)
    assert r.notes[0].startswith("contractible-base route skipped, "
                                 "budget exhausted")
    assert (r.lower, r.upper) == (1, None)
    assert not any("skipped" in note for note in tc_n(loop_image(), 2).notes)


def _small_fibration(base: str, n: int, m: int, strong: bool):
    if base == "paired":
        seg = interval_image(0, 1)
        return PairedFibration(EndpointFibration(seg, 1, m, strong=strong),
                               EndpointFibration(seg, 1, m, strong=strong))
    img = interval_image(0, 2) if base == "interval" else cycle_image(4)
    return EndpointFibration(img, n, m, strong=strong)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("interval", "cycle", "paired")), st.integers(1, 2),
       st.integers(0, 3), st.booleans(), st.integers(0, 10_000))
def test_find_section_agrees_with_the_recursive_search(base, n, m, strong,
                                                       seed):
    fib = _small_fibration(base, n, m, strong)
    rng = random.Random(seed)
    pts = fib.product.points
    piece = rng.sample(pts, rng.randint(1, min(5, len(pts))))
    got = find_section(fib, mask(fib.product, piece))
    want = find_section_oracle(fib, piece)
    if want is None:
        assert got is None
        return
    assert got == want and got.wedges == want.wedges
    ok, why = verify_section(fib, got)
    assert ok, why


def test_every_finite_upper_bound_has_that_many_witness_pieces():
    loop, table, cover = loop_bundle()
    results = [tc_n(loop, k, table, cover) for k in range(1, 5)]
    results += tc_chain(loop, 4, table, cover)
    for r in results:
        if r.upper is not None:
            assert len(r.witness) == r.upper, r.notes


# ---- the one certifier: every proved construction fails loudly ----

def _rotated(sw: SectionWitness) -> SectionWitness:
    """The section with its wedges moved one point along the piece, so
    some wedge ends away from its point."""
    return SectionWitness(sw.piece, sw.wedges[1:] + sw.wedges[:1])


def _reversed_replay(monkeypatch):
    """Make every replayed arm run forwards, from its point to the end of
    the track: such arms end at the wrong point."""
    replay = complexity._replay
    monkeypatch.setattr(complexity, "_replay",
                        lambda track, p, m: replay(track, p, m)[::-1])


def test_a_standing_still_section_that_fails_raises_theorem_violation(
        monkeypatch):
    constant = complexity.constant_section
    monkeypatch.setattr(complexity, "constant_section",
                        lambda fib: _rotated(constant(fib)))
    with pytest.raises(TheoremViolation, match="standing-still section: a "
                                               "section failed verification"):
        tc_n(interval_image(0, 2), 1)


def test_a_contraction_section_that_fails_raises_theorem_violation(
        monkeypatch):
    _reversed_replay(monkeypatch)
    with pytest.raises(TheoremViolation, match="contraction section: a "
                                               "section failed verification"):
        tc_n(interval_image(0, 3), 2)


def test_translation_sections_that_fail_raise_theorem_violation(monkeypatch):
    loop, table, cover = loop_bundle()
    _reversed_replay(monkeypatch)
    with pytest.raises(TheoremViolation, match="translation construction: a "
                                               "section failed verification"):
        tc_upper_via_group(loop, table, 2, cover)
    with pytest.raises(TheoremViolation, match="translation construction"):
        tc_n(loop, 3, table, cover)


def test_a_product_of_sections_that_fails_raises_theorem_violation():
    seg = interval_image(0, 1)
    left = EndpointFibration(seg, 1, 1)
    _, wl = schwarz_genus(left)
    pair = PairedFibration(left, left)
    with pytest.raises(TheoremViolation, match="product of sections: a "
                                               "section failed verification"):
        product_of_sections(pair, (_rotated(wl[0]),), wl)


def test_a_strong_mode_contraction_candidate_falls_through(monkeypatch):
    # the strong step relation has no proof behind the contraction route:
    # its candidate on the 4-point interval fails once, silently
    calls = []
    verify = complexity.verify_section

    def counting(fib, sw):
        calls.append(sw)
        return verify(fib, sw)

    monkeypatch.setattr(complexity, "verify_section", counting)
    r = tc_n(interval_image(0, 3), 2, strong=True)
    assert (r.lower, r.upper) == (1, None)
    assert not any("contractible base" in note for note in r.notes)
    assert len(calls) == 1 and not verify(
        EndpointFibration(interval_image(0, 3), 2, 3, strong=True),
        calls[0])[0]


def test_the_group_route_refuses_a_short_arm_with_a_value_error():
    loop, table, cover = loop_bundle()
    with pytest.raises(ValueError, match="arm length 3 is too short: the "
                                         "translation sections need at "
                                         "least 4"):
        tc_upper_via_group(loop, table, 2, cover, m=3)
    r = tc_n(loop, 2, table, cover, m=3)
    assert (r.lower, r.upper, r.witness) == (2, None, None)


def test_tc_settles_a_small_base_with_one_identity_search(monkeypatch,
                                                          capsys):
    # a base within the sweep limit under a larger product gets its exact
    # category first and a contraction only at category 1, so H's identity
    # map graph is searched once per `tc` command, not twice (once by
    # `contraction`, once by the category oracle), and `verify-paper`,
    # whose TC rows each run `tc_n`, makes 6 such searches, not 9
    from ditop.cli import main
    searches = []
    bfs = MapGraph.bfs

    def counted(self, start, *args, **kwargs):
        searches.append((len(self.domain.points), self.domain == self.codomain
                         and start == tuple(range(len(self.domain.points)))))
        return bfs(self, start, *args, **kwargs)

    monkeypatch.setattr(MapGraph, "bfs", counted)
    for command, want in (("tc corpus:H -n 3", 1), ("tc corpus:H -n 4", 1),
                          ("verify-paper", 6)):
        searches.clear()
        assert main(command.split() + ["--json"]) == 0
        capsys.readouterr()
        assert searches == [(8, True)] * want, command


@pytest.mark.parametrize("base, slid, steps", [
    # a 2 x 3 box: its identity slides, and no map graph is searched
    (DigitalImage(tuple((x, y) for x in range(2) for y in range(3)), CK(1)),
     True, 3),
    # the 8-adjacent ring around a missing centre: its identity is lifted
    # from its core, so one search of its map graph finds a shortest one
    (DigitalImage(tuple((x, y) for x in range(3) for y in range(3)
                        if (x, y) != (1, 1)), CK(2)), False, 3),
])
def test_tc_settles_a_contractible_base_with_one_whole_image_question(
        monkeypatch, base, slid, steps):
    # at category 1 the category's witness for the whole image stands in
    # for `contraction`'s own question: the whole base is asked about
    # once, and a base whose witness is no slide is searched once for a
    # shortest contraction, as `contraction` alone searches it
    asked, searches = [], []
    ask, bfs = homotopy.nullhomotopy, MapGraph.bfs

    def counted_ask(f, *args, **kwargs):
        asked.append(len(f.domain.points))
        return ask(f, *args, **kwargs)

    def counted_bfs(self, start, *args, **kwargs):
        searches.append(len(self.domain.points))
        return bfs(self, start, *args, **kwargs)

    w = contraction(base)
    assert (w.label == "slide", w.steps) == (slid, steps)
    monkeypatch.setattr(homotopy, "nullhomotopy", counted_ask)
    monkeypatch.setattr(category, "nullhomotopy", counted_ask)
    monkeypatch.setattr(MapGraph, "bfs", counted_bfs)
    r = tc_n(base, 2)
    assert (r.lower, r.upper) == (1, 1)
    assert r.notes == (f"contractible base: one global section at arm "
                       f"length {steps}",)
    assert asked.count(len(base.points)) == 1, asked
    assert searches == [len(base.points)] * (not slid), searches
