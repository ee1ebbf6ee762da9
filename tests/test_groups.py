"""Groups: axioms, continuity verdicts, enumeration counts, windows, homs."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ditop import groups
from ditop.cli import main
from ditop.corpus import (flip_table, loop_image, loop_letter,
                          loop_rotation_table, mulwin_group, sign_embedding,
                          sign_image, sign_table, z2_window, z2plus_group,
                          zplus_group, projection_map)
from ditop.groups import (CayleyTable, WindowGroup,
                          enumerate_group_structures,
                          is_group_homomorphism, is_top_homomorphism,
                          is_top_isomorphism, is_topological_group,
                          product_group, scan_group_structures, subgroup_check,
                          verify_cayley, window_alpha_pair, window_group_report,
                          window_hom_report)
from ditop.images import (CK, DigitalImage, Explicit, induced_subimage,
                          interval_image, product_image)
from ditop.maps import DigitalMap

from helpers import (associativity_failure_oracle, continuity_verdict_oracle,
                     counted_builds, fit_masks_oracle, group_inverse,
                     latin_group_structures_oracle, multiplication_map,
                     verify_cayley_oracle)


# Walking order around the loop starting at the identity; the letter at
# position k is a^k, so the loop table is addition of positions mod 8.
LOOP_ORDER = "b a h g f e d c".split()


def _position(letter):
    return LOOP_ORDER.index(letter)


def test_the_loop_table_is_a_group():
    table = loop_rotation_table()
    assert verify_cayley(table) == []
    assert table.identity == (0, 0)


def test_the_loop_table_is_rotation_by_position_arithmetic():
    # products add positions along the cycle, re-derived from scratch here
    table = loop_rotation_table()
    for p in table.image.points:
        for q in table.image.points:
            want = (_position(loop_letter(p)) + _position(loop_letter(q))) % 8
            got = table.product(p, q)
            assert _position(loop_letter(got)) == want


def test_the_loop_group_is_cyclic_of_order_eight():
    table = loop_rotation_table()
    gen = next(p for p in table.image.points
               if loop_letter(p) == LOOP_ORDER[1])
    seen = {table.identity}
    cur = table.identity
    for _ in range(7):
        cur = table.product(cur, gen)
        seen.add(cur)
    assert len(seen) == 8


def test_the_loop_group_is_topological():
    v = is_topological_group(loop_rotation_table())
    assert v.ok, v.failures


def test_translations_of_the_loop_group_are_isomorphisms():
    table = loop_rotation_table()
    from helpers import is_digital_isomorphism, left_translation
    for g in table.image.points:
        ok, why = is_digital_isomorphism(left_translation(table, g))
        assert ok, why


def test_verify_cayley_reports_broken_tables():
    seg = interval_image(0, 1)
    bad = CayleyTable.from_points(seg, (0,), (((0,), (1,)), ((1,), (1,))))
    problems = verify_cayley(bad)
    assert problems
    joined = " ".join(problems)
    assert "inverse" in joined or "Latin" in joined or "identity" in joined


def test_two_point_groups_verify():
    for table in (sign_table(), flip_table(8)):
        assert verify_cayley(table) == []
        v = is_topological_group(table)
        assert v.ok, v.failures


def _structure_count(n):
    """Number of group tables on n labeled points: sum over the groups of
    that order of n! / |Aut|."""
    if n == 2:
        return 2  # C2: 2!/1
    if n == 3:
        return 3  # C3: 3!/2
    if n == 4:
        return 16  # C4: 24/2 plus Klein: 24/6
    if n == 5:
        return 30  # C5: 120/4
    if n == 6:
        return 480  # C6: 720/2 plus S3: 720/6
    raise ValueError(n)


def test_enumeration_counts_match_the_automorphism_arithmetic():
    for n in (2, 3, 4, 5):
        seg = interval_image(0, n - 1)
        tables = list(enumerate_group_structures(seg))
        assert len(tables) == _structure_count(n)
        for t in tables:
            assert verify_cayley(t) == []


def test_enumeration_guard_stops_big_carriers():
    with pytest.raises(ValueError):
        list(enumerate_group_structures(interval_image(0, 8)))


def test_no_interval_of_prime_length_carries_a_topological_group():
    # three and five points: every structure fails continuity
    for p in (3, 5):
        seg = interval_image(0, p - 1)
        res = scan_group_structures(seg)
        assert res.total == _structure_count(p)
        assert res.topological_count == 0
        assert len(res.rejected) == res.total


def test_the_scan_agrees_with_the_full_check_on_every_table():
    # the scan skips the axioms, which every enumerated table satisfies
    for n in (3, 4, 5, 6):
        seg = interval_image(0, n - 1)
        for strong in (False, True):
            res = scan_group_structures(seg, strong=strong)
            assert res.total == _structure_count(n)
            for table in res.topological:
                assert is_topological_group(table, strong=strong).ok
            checked = [(t.identity, is_topological_group(t, strong=strong))
                       for t in enumerate_group_structures(seg)]
            assert list(res.rejected) == [(e, v) for e, v in checked
                                          if not v.ok]


def test_rejections_follow_the_endpoint_middle_pattern():
    # identity at an end tears inversion; identity in the middle tears
    # multiplication near the ends
    seg = interval_image(0, 2)
    res = scan_group_structures(seg)
    for table in enumerate_group_structures(seg):
        e = table.identity[0]
        if e in (0, 2):
            inv = table.inversion_map()
            from ditop.maps import continuity_violation
            assert continuity_violation(inv) is not None
        else:
            mul = multiplication_map(table, product_image(seg, seg))
            from ditop.maps import continuity_violation
            assert continuity_violation(mul) is not None
    for identity, verdict in res.rejected:
        if identity[0] in (0, 2):
            assert verdict.beta_edge is not None
        else:
            assert verdict.alpha_edge is not None


def test_two_point_interval_scan_finds_topological_structures():
    res = scan_group_structures(interval_image(0, 1))
    assert res.total == 2
    assert res.topological_count == 2


def test_sign_scan_is_all_topological():
    res = scan_group_structures(sign_image())
    assert res.total == 2
    assert res.topological_count == 2


def test_product_of_topological_groups_is_topological():
    a = sign_table()
    b = flip_table(8)
    for left, right in ((a, a), (a, b), (b, b)):
        prod = product_group(left, right)
        assert verify_cayley(prod) == []
        v = is_topological_group(prod)
        assert v.ok, v.failures


def test_product_with_the_loop_group_is_topological():
    prod = product_group(loop_rotation_table(), sign_table())
    assert len(prod.image.points) == 16
    v = is_topological_group(prod)
    assert v.ok, v.failures


def _restrict(table, subset):
    sub = induced_subimage(table.image, subset)
    rows = tuple(tuple(table.product(a, b) for b in sub.points)
                 for a in sub.points)
    return CayleyTable.from_points(sub, table.identity, rows)


def test_subgroups_of_the_loop_group_stay_topological():
    table = loop_rotation_table()
    by_pos = {_position(loop_letter(p)): p for p in table.image.points}
    subgroups = [
        [by_pos[0]],
        [by_pos[0], by_pos[4]],
        [by_pos[0], by_pos[2], by_pos[4], by_pos[6]],
        list(table.image.points),
    ]
    for subset in subgroups:
        ok, why = subgroup_check(table, subset)
        assert ok, why
        v = is_topological_group(_restrict(table, subset))
        assert v.ok, v.failures


def test_non_subgroups_are_rejected_with_reasons():
    table = loop_rotation_table()
    by_pos = {_position(loop_letter(p)): p for p in table.image.points}
    ok, why = subgroup_check(table, [by_pos[0], by_pos[3]])
    assert not ok
    assert "closed" in why or "inverse" in why
    ok, why = subgroup_check(table, [by_pos[1], by_pos[7]])
    assert not ok
    assert "identity" in why


def test_every_subset_closed_under_the_loop_operation_is_found():
    # brute-force: exactly four subgroups of a cyclic group of order 8
    table = loop_rotation_table()
    pts = table.image.points
    import itertools
    found = []
    for r in range(1, 9):
        for combo in itertools.combinations(pts, r):
            ok, _ = subgroup_check(table, combo)
            if ok:
                found.append(set(combo))
    assert len(found) == 4


def test_window_addition_is_continuous_under_min_product():
    r = window_group_report(zplus_group())
    assert r.ok_on_window
    assert r.alpha_violation is None
    assert r.beta_violation is None
    assert not r.inverse_missing


def test_window_addition_fails_under_strong_product():
    r = window_group_report(zplus_group(), strong=True)
    assert not r.ok_on_window
    assert r.alpha_violation is not None


def test_the_targeted_strong_pair_convicts_addition():
    wg = zplus_group()
    is_edge, pu, pv, ok = window_alpha_pair(wg, (3, 5), (4, 6), strong=True)
    assert is_edge
    assert (pu, pv) == ((8,), (10,))
    assert not ok
    # under the one-factor-at-a-time product the same pair is not even an edge
    is_edge, _, _, _ = window_alpha_pair(wg, (3, 5), (4, 6))
    assert not is_edge


def test_grid_addition_window_is_topological_under_min():
    r = window_group_report(z2plus_group())
    assert r.ok_on_window, (r.alpha_violation, r.beta_violation)


def test_multiplication_window_reports_missing_inverses_and_alpha_tear():
    r = window_group_report(mulwin_group())
    assert not r.ok_on_window
    assert (2,) in r.inverse_missing
    assert r.alpha_violation is not None


def test_a_window_with_no_invertible_point_checks_no_inversion_edge():
    r = window_group_report(mulwin_group(2, 3))
    assert (r.beta_checked, r.beta_skipped, r.beta_violation) == (0, 1, None)
    assert r.inverse_missing == ((2,), (3,))


def test_window_values_outside_the_window_convict_inversion():
    # (a, b)(c, d) = (a + c, b + d + ac) is a group on Z^2: the inverse of
    # (a, b) is (-a, a^2 - b), which leaves the window
    def op(u, v):
        return u[0] + v[0], u[1] + v[1] + u[0] * v[0]

    twisted = WindowGroup(z2_window(0, 2, 0, 1), op,
                          lambda u: (-u[0], u[0] * u[0] - u[1]),
                          (0, 0), "twisted")
    r = window_group_report(twisted)
    assert (r.alpha_checked, r.alpha_violation) == (84, ((0, 0, 1, 0),
                                                         (1, 0, 1, 0)))
    assert (r.beta_checked, r.beta_skipped) == (7, 0)
    assert r.beta_violation == ((0, 0), (1, 0))
    r = window_group_report(twisted, strong=True)
    assert (r.alpha_checked, r.alpha_violation) == (182, ((0, 0, 0, 0),
                                                          (0, 1, 0, 1)))


def test_doubling_is_a_window_homomorphism_but_not_continuous():
    r = window_hom_report(zplus_group(-2, 2), zplus_group(),
                          lambda p: (2 * p[0],))
    assert r.algebra_violation is None and r.collision is None
    assert (r.edges_checked, r.continuity_violation) == (4, ((-2,), (-1,)))
    r = window_hom_report(zplus_group(-2, 2), zplus_group(),
                          lambda p: (p[0] * p[0],))
    assert r.collision == ((-1,), (1,))


def test_projection_is_a_window_homomorphism_but_not_injective():
    r = window_hom_report(z2plus_group(), zplus_group(),
                          lambda p: (p[0],))
    assert r.is_homomorphism
    assert r.algebra_violation is None
    assert r.continuity_violation is None
    assert not r.injective_on_window
    assert r.collision is not None


def test_finite_projection_map_is_continuous():
    assert projection_map().codomain.dim == 1
    from ditop.maps import is_continuous
    assert is_continuous(projection_map())


def test_sign_embedding_is_an_algebraic_iso_with_torn_inverse():
    f = sign_embedding()
    dom = sign_table()
    cod = flip_table(8)
    ok, why = is_group_homomorphism(f, dom, cod)
    assert ok, why
    ok, why = is_top_homomorphism(f, dom, cod)
    assert ok, why
    assert f.is_bijective()
    ok, why = is_top_isomorphism(f, dom, cod)
    assert not ok
    assert "inverse" in why


def test_a_true_topological_isomorphism_passes():
    table = sign_table()
    ident = DigitalMap.identity(table.image)
    ok, why = is_top_isomorphism(ident, table, table)
    assert ok, why


def test_homomorphism_failure_is_reported_with_the_pair():
    dom = sign_table()
    cod = flip_table(8)
    # constant at the non-identity element: not a homomorphism
    f = DigitalMap.from_points(dom.image, cod.image, ((9,), (9,)))
    ok, why = is_group_homomorphism(f, dom, cod)
    assert not ok
    assert "*" in why


def test_enumeration_agrees_with_the_recursive_latin_fill():
    for p in range(1, 7):
        seg = interval_image(0, p - 1)
        assert (list(enumerate_group_structures(seg))
                == list(latin_group_structures_oracle(seg)))


def test_six_points_check_associativity_on_166_tables(monkeypatch):
    # one row search, identity pinned at 0, leaves 166 candidate tables for
    # the 80 regular subgroups of Sym(6); a search per identity left 996
    # for the 480 groups, the cell-by-cell Latin fill all 56,448 reduced
    # Latin squares
    calls = []
    check = groups._is_associative

    def counted(grid):
        calls.append(1)
        return check(grid)

    monkeypatch.setattr(groups, "_is_associative", counted)
    assert len(list(enumerate_group_structures(interval_image(0, 5)))) == 480
    assert len(calls) == 166


def test_the_enumeration_never_scans_for_a_first_triple(monkeypatch):
    # Light's test asks one middle at a time; only verify_cayley names a
    # failing table's first triple
    middles = []
    scan = groups._triple_failure

    def counted(grid, mids):
        middles.append(len(mids))
        return scan(grid, mids)

    monkeypatch.setattr(groups, "_triple_failure", counted)
    assert len(list(enumerate_group_structures(interval_image(0, 5)))) == 480
    assert middles and set(middles) == {1}


def test_the_row_search_runs_once_per_enumeration(monkeypatch):
    calls = []
    search = groups.backtrack

    def counted(roots, links):
        calls.append(len(roots))
        return search(roots, links)

    monkeypatch.setattr(groups, "backtrack", counted)
    for p in range(1, 7):
        calls.clear()
        list(enumerate_group_structures(interval_image(0, p - 1)))
        assert calls == [p - 1]


def test_every_identity_re_indexes_the_same_regular_subgroups():
    # Cayley and Sabidussi: the rows of a table are a regular subgroup of
    # Sym(p), and each identity's tables are those subgroups re-indexed
    for p in range(1, 7):
        by_identity = {}
        for table in enumerate_group_structures(interval_image(0, p - 1)):
            by_identity.setdefault(table.identity_index, []).append(
                frozenset(table.grid))
        assert sorted(by_identity) == list(range(p))
        subgroups = by_identity[0]
        assert len(set(subgroups)) == len(subgroups)
        for e, row_sets in by_identity.items():
            assert set(row_sets) == set(subgroups), (p, e)
        for rows in subgroups:
            assert len(rows) == p
            assert all(sorted(r) == list(range(p)) for r in rows)
            assert {r[0] for r in rows} == set(range(p))  # regular
            for r, s in itertools.product(rows, repeat=2):
                assert tuple(r[x] for x in s) in rows


def test_fit_masks_match_the_all_pairs_oracle():
    for p in range(1, 7):
        rows, masks = groups._fit_masks(p)
        assert rows == [q for q in itertools.permutations(range(p))
                        if len(_cycle_lengths(q)) == 1][1:]
        assert masks == fit_masks_oracle(p)


def test_fit_masks_test_pairs_once_per_cycle_length(monkeypatch):
    # the rows are 0, 1, 2, 9, 24 and 175 for p = 1..6, in 0, 1, 1, 2, 1
    # and 3 conjugacy classes; an all-pairs table tests rows² pairs
    calls = []
    fits = groups._fits

    def counted(p, q, semiregular):
        calls.append(1)
        return fits(p, q, semiregular)

    monkeypatch.setattr(groups, "_fits", counted)
    tests = []
    for p in range(1, 7):
        calls.clear()
        groups._fit_masks(p)
        tests.append(len(calls))
    assert tests == [0, 1, 2, 18, 24, 525]


def _perturbations(grid):
    """Every grid with one entry of `grid` changed to another index."""
    n = len(grid)
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != grid[a][b]:
                rows = [list(row) for row in grid]
                rows[a][b] = v
                yield rows


def test_light_test_names_the_first_triple_on_perturbed_group_tables():
    for p in range(1, 6):
        for table in enumerate_group_structures(interval_image(0, p - 1)):
            assert groups._associativity_failure(table.grid) is None
            for grid in _perturbations(table.grid):
                assert (groups._associativity_failure(grid)
                        == associativity_failure_oracle(grid))


def _random_magma(rng: random.Random) -> list[list[int]]:
    """A closed grid on at most 7 indices: random, or a semigroup (left or
    right zero, constant, max, addition mod n), with up to two entries
    changed."""
    n = rng.randint(1, 7)
    c = rng.randrange(n)
    op = rng.choice([lambda a, b: rng.randrange(n), lambda a, b: a,
                     lambda a, b: b, lambda a, b: c, max,
                     lambda a, b: (a + b) % n])
    rows = [[op(a, b) for b in range(n)] for a in range(n)]
    for _ in range(rng.choice([0, 0, 1, 2])):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return rows


@settings(max_examples=300)
@given(st.integers(0, 10_000))
def test_light_test_names_the_first_triple_on_random_magmas(seed):
    grid = _random_magma(random.Random(seed))
    assert (groups._associativity_failure(grid)
            == associativity_failure_oracle(grid))


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_light_test_names_the_first_triple_on_product_tables(seed):
    rng = random.Random(seed)
    pool = [sign_table(), flip_table(4), loop_rotation_table(),
            *enumerate_group_structures(interval_image(0, 2)),
            *enumerate_group_structures(interval_image(0, 3))]
    grid = [list(row) for row in
            product_group(rng.choice(pool), rng.choice(pool)).grid]
    if rng.random() < 0.7:
        n = len(grid)
        grid[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    assert (groups._associativity_failure(grid)
            == associativity_failure_oracle(grid))


class _CountingRow:
    """A grid row that counts its entry reads."""

    def __init__(self, row, reads):
        self.row, self.reads = row, reads

    def __getitem__(self, i):
        self.reads.append(1)
        return self.row[i]


def test_light_test_reads_a_small_share_of_the_product_table():
    # Hrot x Hrot is Z8 x Z8, generated by its first two points: at most
    # 2 * 64**2 triple checks of three reads each, plus 64**2 for the
    # generators and their reach; a full scan checks 64**3 = 262,144
    grid = product_group(loop_rotation_table(), loop_rotation_table()).grid
    reads = []
    counted = [_CountingRow(row, reads) for row in grid]
    assert groups._associativity_failure(counted) is None
    assert len(reads) <= 7 * 64 ** 2


def _cycle_lengths(perm):
    lengths, seen = set(), set()
    for start in perm:
        x, k = start, 0
        while x not in seen:
            seen.add(x)
            x, k = perm[x], k + 1
        if k:
            lengths.add(k)
    return lengths


def test_rows_of_group_tables_and_their_compositions_are_semiregular():
    rot = loop_rotation_table()
    tables = [rot, sign_table(), flip_table(8), product_group(rot, rot)]
    for p in range(1, 6):
        tables += latin_group_structures_oracle(interval_image(0, p - 1))
    assert len(tables[3].grid) == 64
    for table in tables:
        rows = table.grid
        for a in rows:
            assert sorted(a) == list(range(len(rows))), (table.identity, a)
            assert len(_cycle_lengths(a)) == 1, (table.identity, a)
            for b in rows:
                ab = tuple(a[x] for x in b)
                assert len(_cycle_lengths(ab)) == 1, (table.identity, a, b)


def _group_tables() -> list[CayleyTable]:
    return [loop_rotation_table(), sign_table(), flip_table(4),
            *enumerate_group_structures(interval_image(0, 3))]


def _perturbed_table(seed: int) -> CayleyTable:
    """A group table with up to three entries changed to other carrier
    points and sometimes another identity: a table is closed by
    construction, so no entry can leave the carrier."""
    rng = random.Random(seed)
    base = rng.choice(_group_tables())
    pts = base.image.points
    rows = [list(row) for row in base.entries]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(len(pts)), rng.randrange(len(pts))
        rows[a][b] = rng.choice(pts)
    identity = rng.choice(pts) if rng.random() < 0.2 else base.identity
    return CayleyTable.from_points(base.image, identity, rows)


def test_the_point_constructor_rejects_every_entry_outside_the_carrier():
    for base in _group_tables():
        pts = base.image.points
        outside = (99,) * len(pts[0])
        for (i, a), (j, b) in itertools.product(enumerate(pts), repeat=2):
            rows = [list(row) for row in base.entries]
            rows[i][j] = outside
            with pytest.raises(ValueError) as info:
                CayleyTable.from_points(base.image, base.identity, rows)
            assert str(info.value) == (f"{a} * {b} = {outside} is outside "
                                       f"the carrier")
        with pytest.raises(ValueError, match="is not in the carrier"):
            CayleyTable.from_points(base.image, outside, base.entries)
        with pytest.raises(ValueError, match="table must be"):
            CayleyTable.from_points(base.image, base.identity,
                                    base.entries[1:])


@settings(max_examples=80)
@given(st.integers(0, 10_000))
def test_the_index_grid_check_matches_the_point_check(seed):
    table = _perturbed_table(seed)
    assert verify_cayley(table) == verify_cayley_oracle(table)
    pts, e = table.image.points, table.identity
    assert [group_inverse(table, a) for a in pts] == [
        next((b for b in pts if table.product(a, b) == e
              and table.product(b, a) == e), None) for a in pts]


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_only_continuity_failures_carry_an_edge(seed):
    table = _perturbed_table(seed)
    v = is_topological_group(table)
    axioms_hold = not verify_cayley(table)
    assert axioms_hold == (v.ok or v.alpha_edge is not None
                           or v.beta_edge is not None)


# ---- the normal-Cayley-graph test against the G x G scan ----

def _random_carrier(rng: random.Random) -> DigitalImage:
    """1 to 6 points: a c_k image in Z^1 to Z^3, or explicit edges, with
    cycles and complete graphs oversampled."""
    n = rng.randint(1, 6)
    kind = rng.choice(["ck", "ck", "random", "cycle", "complete"])
    if kind == "ck":
        d = rng.randint(1, 3)
        box = list(itertools.product(range(6 if d == 1 else 3), repeat=d))
        return DigitalImage(tuple(rng.sample(box, n)), CK(rng.randint(1, d)))
    pts = [(i,) for i in range(n)]
    pairs = list(itertools.combinations(pts, 2))
    if kind == "random":
        pairs = [e for e in pairs if rng.random() < 0.5]
    elif kind == "cycle":
        order = rng.sample(pts, n)
        pairs = list(zip(order, order[1:] + order[:1]))[:n if n > 2 else n - 1]
    return DigitalImage(tuple(pts), Explicit.of(pairs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_the_cayley_test_matches_the_square_scan_on_every_table(seed):
    img = _random_carrier(random.Random(seed))
    tables = list(enumerate_group_structures(img))
    for strong in (False, True):
        want = [continuity_verdict_oracle(t, strong=strong) for t in tables]
        assert [is_topological_group(t, strong=strong)
                for t in tables] == want
        res = scan_group_structures(img, strong=strong)
        assert list(res.rejected) == [(t.identity, v)
                                      for t, v in zip(tables, want) if not v.ok]
        assert res.topological == tuple(t for t, v in zip(tables, want)
                                        if v.ok)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_the_cayley_test_matches_the_square_scan_on_product_tables(seed):
    rng = random.Random(seed)
    pool = [sign_table(), flip_table(4), loop_rotation_table(),
            *enumerate_group_structures(interval_image(0, 2)),
            *enumerate_group_structures(interval_image(0, 3))]
    strong = rng.random() < 0.5
    table = product_group(rng.choice(pool), rng.choice(pool),
                          strong=rng.random() < 0.5)
    assert (is_topological_group(table, strong=strong)
            == continuity_verdict_oracle(table, strong=strong))


@pytest.mark.parametrize("command, largest", [
    ("group-product corpus:Hrot corpus:Hrot", 64),
    ("group-check corpus:Hrot", 8),
    ("group-scan -p 6", 6)])
@pytest.mark.parametrize("mode", ["pointwise", "strong"])
def test_finite_group_checks_build_no_table_of_the_square(
        monkeypatch, capsys, command, largest, mode):
    # the G x G scan built the carrier's square: 4,096, 64 and 36 rows
    builds: dict = {}
    counted_builds(monkeypatch, "neighbor_index", builds)
    main(command.split() + ["--mode", mode, "--json"])
    capsys.readouterr()
    assert max(size for _, size in builds) == largest, builds
