"""The bundled reference results, re-derived on demand.

Each row names a claim about the built-in examples, recomputes it from
scratch, and compares with the recorded value. A row ends in one of:
"match", "within paper bound" (an inequality expectation that holds),
"MISMATCH", "inconclusive (budget exhausted)", or "ERROR: ...". The
verify-paper command prints the table and exits nonzero when any row
mismatches or errors; a failed self-check propagates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

from .category import cat_exact, piece_contraction
from .complexity import (PairedFibration, TheoremViolation,
                         product_of_sections, schwarz_genus, tc_n)
from .corpus import (LOOP_LETTERS, loop_cover, loop_rotation_table,
                     flip_table, reference_contractions, sign_embedding,
                     sign_table, z2plus_group, zplus_group)
from .covers import BoundResult
from .groups import (CayleyTable, is_top_homomorphism,
                     is_topological_group, product_group, scan_group_structures,
                     subgroup_check, verify_cayley, window_alpha_pair,
                     window_group_report, window_hom_report)
from .homotopy import BudgetExhausted, is_contractible, verify_homotopy
from .images import (DigitalImage, induced_subimage, interval_image,
                     product_image)
from .maps import continuity_violation
from .pathspace import EndpointFibration


@dataclass
class Row:
    name: str
    expected: str
    computed: str
    status: str

    @property
    def ok(self) -> bool:
        return self.status in ("match", "within paper bound")


def _row(name: str, expected: str, fn: Callable[[], tuple[str, object]]) -> Row:
    try:
        computed, verdict = fn()
    except (TheoremViolation, AssertionError):
        raise  # a failed self-check is a fault, not a verdict on the row
    except BudgetExhausted:
        return Row(name, expected, "budget exhausted",
                   "inconclusive (budget exhausted)")
    except Exception as err:  # a row must never take down the whole table
        return Row(name, expected, f"{type(err).__name__}: {err}", "ERROR")
    if verdict is True:
        status = "match"
    elif isinstance(verdict, str):
        status = verdict
    else:
        status = "MISMATCH"
    return Row(name, expected, computed, status)


def run_reference_rows() -> list[Row]:
    """Compute every reference row. The loop rows share the carrier of
    the loop's rotation table."""
    rot = loop_rotation_table()
    H = rot.image
    m1, m2 = loop_cover()
    rows: list[Row] = []
    add = rows.append

    def loop_shape():
        comp = "connected" if H.is_connected else "disconnected"
        got = f"{len(H.points)} points, {comp}"
        return got, got == "8 points, connected"
    add(_row("the loop: size and connectivity", "8 points, connected",
             loop_shape))

    def cat_loop():
        w = cat_exact(H)
        return str(w.size), w.size == 2
    add(_row("category of the loop", "2", cat_loop))

    def pieces_admissible():
        good = sum(piece_contraction(H, H.mask(piece)) is not None
                   for piece in (m1, m2))
        return f"{good} of 2 admissible", good == 2
    add(_row("the textbook cover pieces contract", "2 of 2 admissible",
             pieces_admissible))

    def ref_homotopy(which: int, target):
        w = reference_contractions()[which]
        ok, why = verify_homotopy(w)
        if not ok:
            return f"does not verify: {why}", False
        end = w.stages[-1]
        if not end.is_constant():
            return "does not end at a constant", False
        got = end.values[0]
        return f"verifies, ends at constant {got}", got == target
    add(_row("first reference contraction", "ends at (2, 1)",
             lambda: ref_homotopy(0, (2, 1))))
    add(_row("second reference contraction", "ends at (0, -1)",
             lambda: ref_homotopy(1, (0, -1))))

    def loop_not_contractible():
        got = is_contractible(H)
        return ("contractible" if got else "not contractible"), got is False
    add(_row("the loop is not contractible", "not contractible",
             loop_not_contractible))

    def interval_shrinks():
        img = interval_image(0, 9)
        c = is_contractible(img)
        k = cat_exact(img).size
        return f"contractible: {c}, category {k}", c and k == 1
    add(_row("a ten-point interval", "contractible: True, category 1",
             interval_shrinks))

    @cache  # the TC rows share TC_n of the loop, one computation per n
    def tc_of_loop(n: int) -> BoundResult:
        return tc_n(H, n, table=rot, cover=(m1, m2))

    def tc1():
        r = tc_of_loop(1)
        return _fmt_bounds(r), r.exact and r.value == 1
    add(_row("TC_1 of the loop", "1", tc1))

    def tc2():
        r = tc_of_loop(2)
        return _fmt_bounds(r), r.exact and r.value == 2
    add(_row("TC_2 of the loop", "2", tc2))

    def tc3():
        # TC never drops as n grows: every earlier lower bound holds
        lo = max(tc_of_loop(n).lower for n in (1, 2, 3))
        hi = tc_of_loop(3).upper
        got = f"[{lo}, {hi}]"
        if lo >= 2 and hi is not None and hi <= 4:
            return got, "within paper bound"
        return got, False
    add(_row("TC_3 of the loop", "<= 4", tc3))

    def rot_is_group():
        bad = verify_cayley(rot)
        return ("group" if not bad else f"fails: {bad[0]}"), not bad
    add(_row("the loop table is a group", "group", rot_is_group))

    def rot_is_top():
        v = is_topological_group(rot)
        return ("topological" if v.ok else f"fails: {v.failures[0]}"), v.ok
    add(_row("the loop group is topological", "topological", rot_is_top))

    def rot_generator():
        e = rot.identity
        a = LOOP_LETTERS["a"]
        seen = {e}
        x = e
        for _ in range(len(H.points)):
            x = rot.product(x, a)
            seen.add(x)
        ok = seen == set(H.points) and rot.identity == LOOP_LETTERS["b"]
        return f"identity {rot.identity}, generator reaches {len(seen)}", ok
    add(_row("identity and generator of the loop group",
             "identity (0, 0), generator reaches 8", rot_generator))

    def sign_top():
        v = is_topological_group(sign_table())
        return ("topological" if v.ok else "fails"), v.ok
    add(_row("the sign group {-1, 1}", "topological", sign_top))

    def flip_top():
        v = is_topological_group(flip_table(8))
        return ("topological" if v.ok else "fails"), v.ok
    add(_row("the flip group on [8, 9]", "topological", flip_top))

    def scan(p: int, want_total: int):
        res = scan_group_structures(interval_image(0, p - 1))
        got = f"{res.total} structures, {res.topological_count} topological"
        return got, (res.total == want_total and res.topological_count == 0)
    add(_row("scan of the three-point interval", "3 structures, 0 topological",
             lambda: scan(3, 3)))
    add(_row("scan of the five-point interval", "30 structures, 0 topological",
             lambda: scan(5, 30)))

    def failure_pattern():
        res = scan_group_structures(interval_image(0, 2))
        follow = 0
        for identity, verdict in res.rejected:
            if identity in ((0,), (2,)):
                broken = verdict.beta_edge
            else:
                broken = verdict.alpha_edge
            if broken is not None:
                follow += 1
        got = f"{follow} of {res.total} follow the pattern"
        return got, follow == res.total
    add(_row("three-point rejections: endpoint identity breaks inversion, "
             "middle identity breaks multiplication",
             "3 of 3 follow the pattern", failure_pattern))

    def window_min():
        rep = window_group_report(zplus_group(0, 9))
        return ("continuous" if rep.ok_on_window else "fails"), rep.ok_on_window
    add(_row("integer addition on a window, minimum product", "continuous",
             window_min))

    def window_strong():
        wg = zplus_group(0, 9)
        rep = window_group_report(wg, strong=True)
        if rep.alpha_violation is None:
            return "no violation found", False
        is_edge, pu, pv, ok = window_alpha_pair(wg, (3, 5), (4, 6), strong=True)
        got = f"witness ((3, 5), (4, 6)) -> {pu}, {pv}"
        return got, (is_edge and not ok and pu == (8,) and pv == (10,))
    add(_row("integer addition on a window, strong product",
             "witness ((3, 5), (4, 6)) -> (8,), (10,)", window_strong))

    def projection_row():
        rep = window_hom_report(z2plus_group(), zplus_group(0, 3),
                                lambda p: (p[0],))
        got = (f"homomorphism: {rep.is_homomorphism}, injective: "
               f"{rep.injective_on_window}")
        return got, rep.is_homomorphism and not rep.injective_on_window
    add(_row("grid-to-line projection", "homomorphism: True, injective: False",
             projection_row))

    def embedding_row():
        f = sign_embedding()
        dom, cod = sign_table(), flip_table(8)
        hom_ok, why = is_top_homomorphism(f, dom, cod)
        if not hom_ok:
            return f"not a homomorphism: {why}", False
        if not f.is_bijective():
            return "not bijective", False
        inv_bad = continuity_violation(f.inverse())
        got = (f"continuous bijective homomorphism, inverse breaks at "
               f"{inv_bad}")
        return got, inv_bad is not None
    add(_row("sign group into the flip group",
             "continuous bijective homomorphism, discontinuous inverse",
             embedding_row))

    def product_row():
        prod = product_group(rot, flip_table(8))
        v = is_topological_group(prod)
        got = (f"{len(prod.image.points)}-point product, "
               + ("topological" if v.ok else "fails"))
        return got, v.ok
    add(_row("product of two topological groups", "topological", product_row))

    def subgroups_row():
        pos = {LOOP_LETTERS[x]: k for k, x in enumerate("bahgfedc")}
        carriers = [
            [p for p in H.points if pos[p] == 0],
            [p for p in H.points if pos[p] % 4 == 0],
            [p for p in H.points if pos[p] % 2 == 0],
            list(H.points),
        ]
        good = 0
        for sub in carriers:
            ok, _ = subgroup_check(rot, sub)
            if not ok:
                continue
            v = is_topological_group(_restrict_table(rot, sub))
            if v.ok:
                good += 1
        return f"{good} of 4 subgroups topological", good == 4
    add(_row("subgroups of the loop group stay topological",
             "4 of 4 subgroups topological", subgroups_row))

    def genus_product_row():
        I = interval_image(0, 1)
        f = EndpointFibration(I, 1, 1)
        g = EndpointFibration(I, 2, 1)
        k1, w1 = schwarz_genus(f)
        k2, w2 = schwarz_genus(g)
        pair = PairedFibration(f, g)
        kp, _ = schwarz_genus(pair)
        prod = product_of_sections(pair, w1, w2)
        got = f"genus {kp} <= {k1} + {k2}, {len(prod)} product piece(s)"
        return got, kp <= k1 + k2
    add(_row("genus of a product of fibrations", "subadditive",
             genus_product_row))

    def sandwich_row():
        I = interval_image(0, 1)
        c1 = cat_exact(I).size
        t = tc_n(I, 2)
        sq = product_image(I, I)
        c2 = cat_exact(sq).size
        got = f"{c1} <= {_fmt_bounds(t)} <= {c2}"
        ok = t.exact and c1 <= t.value <= c2
        return got, ok
    add(_row("category sandwich on the unit interval", "1 <= 1 <= 1",
             sandwich_row))

    def translation_row():
        shift = (5, 7)
        moved = DigitalImage([(p[0] + shift[0], p[1] + shift[1])
                              for p in H.points], H.adjacency)
        # a translation keeps the point order, so the grid carries over
        table = CayleyTable(moved, rot.identity_index, rot.grid)
        k = cat_exact(moved).size
        cover = tuple(tuple((p[0] + shift[0], p[1] + shift[1]) for p in piece)
                      for piece in (m1, m2))
        r = tc_n(moved, 2, table=table, cover=cover)
        got = f"category {k}, TC_2 {_fmt_bounds(r)}"
        return got, k == 2 and r.exact and r.value == 2
    add(_row("category and TC_2 survive translation", "category 2, TC_2 2",
             translation_row))

    return rows


def _fmt_bounds(r: BoundResult) -> str:
    if r.exact:
        return str(r.value)
    hi = "?" if r.upper is None else str(r.upper)
    return f"[{r.lower}, {hi}]"


def _restrict_table(table: CayleyTable, subset) -> CayleyTable:
    return CayleyTable.from_function(induced_subimage(table.image, subset),
                                     table.product, table.identity)
