"""Acceptance gate: the eight headline checks, one line of verdict each.

Run with -s to see the ACCEPTANCE lines; each also asserts, so a FAIL
fails the suite. Runtime caps are asserted where the requirement names
one; "instantaneous" criteria get a generous five seconds.
"""

from __future__ import annotations

import json
import random
import time

from ditop.category import cat, cat_exact, piece_contraction
from ditop.cli import main as cli_main
from ditop.complexity import (constant_section, product_of_sections,
                              schwarz_genus, tc_chain, tc_n,
                              tc_upper_via_group, verify_section)
from ditop.corpus import (flip_table, loop_cover, loop_image,
                          loop_letter, loop_rotation_table,
                          reference_contractions, sign_embedding, sign_image,
                          sign_table, z2plus_group, zplus_group)
from ditop.groups import (enumerate_group_structures, is_group_homomorphism,
                          is_top_homomorphism, is_top_isomorphism,
                          is_topological_group, product_group,
                          scan_group_structures, subgroup_check, verify_cayley,
                          window_alpha_pair, window_group_report,
                          window_hom_report, CayleyTable)
from ditop.homotopy import verify_homotopy
from ditop.images import (CK, DigitalImage, induced_subimage, interval_image,
                          power_image, product_image)
from ditop.knownvalues import run_reference_rows
from ditop.maps import DigitalMap, continuity_violation, is_continuous
from ditop.pathspace import EndpointFibration, PairedFibration

from helpers import (is_continuous_subset_oracle, loop_bundle, mask,
                     multiplication_map, plane_isometry, random_map_values)

INSTANT = 5.0


def _report(n, ok, detail, elapsed, cap):
    word = "PASS" if ok and elapsed <= cap else "FAIL"
    print(f"ACCEPTANCE {n} {word}: {detail} ({elapsed:.1f}s of {cap:.0f}s)")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed <= cap, f"criterion {n} overran: {elapsed:.1f}s > {cap}s"


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_acceptance_1_category_of_the_loop(capsys):
    t0 = time.monotonic()
    code, out = _run_cli(capsys, "cat", "corpus:H", "--json")
    doc = json.loads(out)
    ok = code == 0 and doc["results"]["cat"] == 2
    ok = ok and len([k for k in doc["witnesses"] if k.endswith(".contraction")]) == 2

    loop = loop_image()
    w = cat_exact(loop)
    checked, why = w.check()
    ok = ok and w.size == 2 and checked

    m1, m2 = loop_cover()
    for piece in (m1, m2):
        c = piece_contraction(loop, mask(loop, piece))
        good = c is not None and verify_homotopy(c)[0]
        ok = ok and good
    elapsed = time.monotonic() - t0
    _report(1, ok, "cat(loop) = 2 with verified cover; textbook pieces admissible",
            elapsed, 60.0)


def test_acceptance_2_reference_homotopy_tables():
    t0 = time.monotonic()
    f1, f2 = reference_contractions()
    ok = True
    for w, target in ((f1, (2, 1)), (f2, (0, -1))):
        good, why = verify_homotopy(w)
        ok = ok and good
        first, last = w.stages[0], w.stages[-1]
        ok = ok and first.values == first.domain.points  # the inclusion
        ok = ok and set(last.values) == {target}
    elapsed = time.monotonic() - t0
    _report(2, ok, "both stage tables verify, ending at e and a", elapsed,
            INSTANT)


def test_acceptance_3_tc_of_the_loop(capsys):
    t0 = time.monotonic()
    code1, out1 = _run_cli(capsys, "tc", "corpus:H", "-n", "1", "--json")
    doc1 = json.loads(out1)
    ok = code1 == 0 and doc1["results"]["tc"] == 1

    code2, out2 = _run_cli(capsys, "tc", "corpus:H", "-n", "2", "--json")
    doc2 = json.loads(out2)
    ok = ok and code2 == 0 and doc2["results"]["tc"] == 2
    ok = ok and "lower 2: the category of the base" in " ".join(doc2["notes"])

    loop, table, cover = loop_bundle()
    count, wits, m = tc_upper_via_group(loop, table, 2, cover=cover)
    fib = EndpointFibration(loop, 2, m)
    covered = set()
    for sw in wits:
        good, why = verify_section(fib, sw)
        ok = ok and good
        covered.update(sw.piece)
    ok = ok and count == 2 and len(fib.product.points) == 64
    ok = ok and covered == set(range(len(fib.product.points)))
    elapsed = time.monotonic() - t0
    _report(3, ok, "TC_1 = 1, TC_2 = 2 with a verified 2-piece section cover "
                   "of the 64-point product", elapsed, 600.0)


def test_acceptance_4_tc3_bound():
    t0 = time.monotonic()
    loop, table, cover = loop_bundle()
    chain = tc_chain(loop, 3, table=table, cover=cover)
    last = chain[-1]
    ok = last.upper == 4 and last.lower == 2 and not last.exact

    rows = {r.name: r for r in run_reference_rows()}
    row = rows["TC_3 of the loop"]
    ok = ok and row.status == "within paper bound"
    elapsed = time.monotonic() - t0
    _report(4, ok, "chained bound gives [2, 4], marked 'within paper bound'",
            elapsed, INSTANT)


def test_acceptance_5_topological_group_verdicts():
    t0 = time.monotonic()
    v = is_topological_group(loop_rotation_table())
    ok = v.ok
    for table in (sign_table(), flip_table(8)):
        ok = ok and is_topological_group(table).ok

    soft = window_group_report(zplus_group())
    hard = window_group_report(zplus_group(), strong=True)
    ok = ok and soft.ok_on_window and not hard.ok_on_window

    is_edge, pu, pv, pair_ok = window_alpha_pair(zplus_group(), (3, 5), (4, 6),
                                                 strong=True)
    ok = ok and is_edge and (pu, pv) == ((8,), (10,)) and not pair_ok
    elapsed = time.monotonic() - t0
    _report(5, ok, "Table 1 and both two-point groups verify; window addition "
                   "splits min vs strong at ((3,5),(4,6)) -> (8,),(10,)",
            elapsed, 10.0)


def test_acceptance_6_prime_interval_scan():
    t0 = time.monotonic()
    ok = True
    for p, expect in ((3, 3), (5, 30)):
        seg = interval_image(0, p - 1)
        res = scan_group_structures(seg)
        ok = ok and res.total == expect and res.topological_count == 0
        # n! / |Aut| arithmetic for the cyclic group of prime order
        fact = 1
        for i in range(2, p + 1):
            fact *= i
        ok = ok and expect == fact // (p - 1)
        for _identity, verdict in res.rejected:
            ok = ok and (verdict.beta_edge is not None
                         or verdict.alpha_edge is not None)
        for table in enumerate_group_structures(seg):
            e = table.identity[0]
            if e in (0, p - 1):
                ok = ok and continuity_violation(table.inversion_map()) is not None
            else:
                ok = ok and continuity_violation(multiplication_map(
                    table, product_image(seg, seg))) is not None
    elapsed = time.monotonic() - t0
    _report(6, ok, "3 and 30 structures (matching n!/|Aut|), none topological, "
                   "failures follow the endpoint/middle pattern",
            elapsed, 120.0)


def test_acceptance_7_homomorphism_examples():
    t0 = time.monotonic()
    r = window_hom_report(z2plus_group(), zplus_group(), lambda p: (p[0],))
    ok = r.is_homomorphism and not r.injective_on_window

    f = sign_embedding()
    dom, cod = sign_table(), flip_table(8)
    good, _ = is_group_homomorphism(f, dom, cod)
    ok = ok and good
    ok = ok and f.is_bijective() and is_continuous(f)
    iso, why = is_top_isomorphism(f, dom, cod)
    ok = ok and not iso and "inverse" in (why or "")
    elapsed = time.monotonic() - t0
    _report(7, ok, "projection: homomorphism, not injective; embedding: "
                   "group iso, continuous, inverse tears", elapsed, INSTANT)


def _suite_a(rng):
    box = [(x, y) for x in range(3) for y in range(4)]
    for _ in range(500):
        count = rng.randint(1, 10)
        dom = DigitalImage(tuple(rng.sample(box, count)), CK(rng.randint(1, 2)))
        cod = DigitalImage(tuple(rng.sample(box, rng.randint(1, 10))),
                           CK(rng.randint(1, 2)))
        f = DigitalMap.from_points(dom, cod, random_map_values(rng, dom, cod))
        if is_continuous(f) != is_continuous_subset_oracle(f):
            return False
    return True


def _suite_b(rng):
    loop, table, cover = loop_bundle()
    for _ in range(4):
        move = plane_isometry(rng)
        pts = tuple(move(p) for p in loop.points)
        shifted = DigitalImage(pts, CK(1))
        if cat(shifted) != 2:
            return False
        remap = {p: move(p) for p in loop.points}
        order = shifted.points
        rows = tuple(
            tuple(remap[table.product(inv[a], inv[b])] for b in order)
            for inv in [{v: k for k, v in remap.items()}]
            for a in order)
        moved_table = CayleyTable.from_points(shifted, remap[table.identity],
                                              rows)
        moved_cover = [tuple(sorted(remap[p] for p in piece))
                       for piece in cover]
        r = tc_n(shifted, 2, table=moved_table, cover=moved_cover)
        if not (r.exact and r.value == 2):
            return False
    return True


def _suite_c(rng):
    box = [(x, y) for x in range(3) for y in range(3)]
    done = 0
    while done < 50:
        count = rng.randint(1, 9)
        img1 = DigitalImage(tuple(rng.sample(box, count)), CK(1))
        if not img1.is_connected:
            continue
        done += 1
        img2 = DigitalImage(img1.points, CK(2))
        if cat(img2) > cat(img1):
            return False
    return True


def _suite_d():
    # lower cat(X^(n-1)) <= TC_n <= cat(X^n), wherever all three fit the guard
    cases = [(interval_image(0, 1), 2), (interval_image(0, 2), 2),
             (interval_image(0, 1), 3)]
    for img, n in cases:
        low = cat(power_image(img, n - 1))
        high = cat(power_image(img, n))
        r = tc_n(img, n)
        if not (r.exact and low <= r.value <= high):
            return False
    # for the loop only the lower half is within the exact sweep
    loop, table, cover = loop_bundle()
    r = tc_n(loop, 2, table=table, cover=cover)
    return r.exact and cat(loop) <= r.value


def _suite_e():
    seg = interval_image(0, 1)
    e1 = EndpointFibration(seg, 1, 1)
    e2 = EndpointFibration(seg, 2, 1)
    k1, w1 = schwarz_genus(e1)
    k2, w2 = schwarz_genus(e2)
    pair = PairedFibration(e1, e2)
    pieces = product_of_sections(pair, w1, w2)
    if not (k1 == k2 == 1 and len(pieces) <= k1 + k2):
        return False

    loop, table, cover = loop_bundle()
    _, tc2_wits, m = tc_upper_via_group(loop, table, 2, cover=cover)
    e1_loop = EndpointFibration(loop, 1, m)
    one_piece = constant_section(e1_loop)
    big = PairedFibration(e1_loop, EndpointFibration(loop, 2, m))
    big_pieces = product_of_sections(big, (one_piece,), tc2_wits)
    if len(big.product.points) != 512:
        return False
    return len(big_pieces) <= 1 + 2


def _suite_f():
    tables = [loop_rotation_table(), sign_table(), flip_table(8)]
    for a in tables:
        for b in tables:
            prod = product_group(a, b)
            if verify_cayley(prod) or not is_topological_group(prod).ok:
                return False
    table = loop_rotation_table()
    order = "b a h g f e d c".split()
    by_pos = {order.index(loop_letter(p)): p for p in table.image.points}
    for positions in ([0], [0, 4], [0, 2, 4, 6], list(range(8))):
        subset = [by_pos[k] for k in positions]
        good, _ = subgroup_check(table, subset)
        if not good:
            return False
        sub = induced_subimage(table.image, subset)
        rows = tuple(tuple(table.product(x, y) for y in sub.points)
                     for x in sub.points)
        if not is_topological_group(
                CayleyTable.from_points(sub, table.identity, rows)).ok:
            return False
    return True


def test_acceptance_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(20260819)
    results = {
        "a": _suite_a(rng),
        "b": _suite_b(rng),
        "c": _suite_c(rng),
        "d": _suite_d(),
        "e": _suite_e(),
        "f": _suite_f(),
    }
    ok = all(results.values())
    failed = [k for k, v in results.items() if not v]
    elapsed = time.monotonic() - t0
    detail = "suites a-f all green" if ok else f"failed: {', '.join(failed)}"
    _report(8, ok, detail, elapsed, 900.0)
