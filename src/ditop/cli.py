"""Command-line surface.

Twelve subcommands over the library: inspect images, check continuity,
search homotopies, compute category and higher complexity with their
witnesses, test and enumerate group structures, and re-derive the
bundled reference results. Verdict-style commands exit 0 for yes, 2 for
no; user errors exit 1; running out of search budget is reported inside
the output as the verdict "unknown" and still exits 0, and a cover that
cannot exist (arms too short to reach some endpoints) as the verdict
"impossible", exiting 2. Internal faults such as a TheoremViolation are
not user errors and propagate.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Callable

from . import covers
from .category import cat_bounds, cat_exact
from .cocycles import check_certificate
from .complexity import CoverImpossible, schwarz_genus, tc_n
from .corpus import (UnknownCorpusName, get_image, get_map, get_table,
                     get_window_group, loop_cover)
from .fileio import (load_group, load_image, load_map, serialize_cover,
                     serialize_group, serialize_homotopy, serialize_image,
                     serialize_map, serialize_sections)
from .groups import (WindowGroup, is_top_homomorphism,
                     is_topological_group, isomorphism_failure,
                     scan_group_structures, product_group,
                     window_group_report, window_hom_report)
from .homotopy import (NODE_BUDGET, BudgetExhausted, are_homotopic, budget,
                       contraction)
from .images import (CK, DigitalImage, Explicit, induced_subimage,
                     interval_image)
from .knownvalues import run_reference_rows
from .maps import DigitalMap, continuity_violation
from .pathspace import EndpointFibration
from .report import Report, digest_file, digest_text

# window-group homomorphisms need a rule for every point the operations
# can reach, not just a finite table of pairs; the built-in ones live here
WINDOW_FUNCTIONS = {
    "proj1": lambda p: (p[0],),
}


def _adjacency_word(img: DigitalImage) -> str:
    adj = img.adjacency
    if isinstance(adj, CK):
        return f"c{adj.k}"
    if isinstance(adj, Explicit):
        return f"explicit ({len(adj.edges)} edges)"
    return type(adj).__name__


def _image_from_ref(ref: str) -> tuple[DigitalImage, str]:
    if ref.startswith("corpus:"):
        img = get_image(ref[len("corpus:"):])
        return img, digest_text(serialize_image(img))
    return load_image(ref), digest_file(ref)


def _map_from_ref(ref: str) -> tuple[DigitalMap, str]:
    if ref.startswith("corpus:"):
        dm = get_map(ref[len("corpus:"):])
        return dm, digest_text(serialize_map(dm, ref, ref))
    return load_map(ref), digest_file(ref)


def _group_from_ref(ref: str):
    """A finite table or a window group, with its digest."""
    if ref.startswith("corpus:"):
        name = ref[len("corpus:"):]
        try:
            table = get_table(name)
            return table, digest_text(serialize_group(table, ref))
        except UnknownCorpusName:
            pass
        wg = get_window_group(name)
        return wg, digest_text(wg.label + "\n"
                               + serialize_image(wg.window))
    return load_group(ref), digest_file(ref)


# ---- commands ----
#
# Each command fills the report that `main` built from argv and returns
# its exit code. A search that runs out of the command's one budget
# raises BudgetExhausted, and a cover search with an unreachable point
# raises CoverImpossible; `main` then records the command's verdict as
# "unknown" or "impossible". So every input and setting goes into the
# report before the search starts.

def cmd_image_info(args, rep: Report) -> int:
    img, rep.inputs[args.image] = _image_from_ref(args.image)
    rep.results["points"] = len(img.points)
    rep.results["dim"] = img.dim
    rep.results["adjacency"] = _adjacency_word(img)
    rep.results["edges"] = len(list(img.edges()))
    rep.results["connected"] = img.is_connected
    rep.results["components"] = len(img.components)
    if img.is_connected:
        rep.results["diameter"] = img.diameter
    return 0


def cmd_check_continuity(args, rep: Report) -> int:
    dm, rep.inputs[args.map] = _map_from_ref(args.map)
    bad = continuity_violation(dm)
    rep.results["continuous"] = bad is None
    if bad is None:
        return 0
    a, b = bad
    rep.results["violation_edge"] = f"{a} ~ {b}"
    rep.results["violation_images"] = f"{dm(a)} vs {dm(b)}"
    return 2


def _certified(f: DigitalMap, phi, gamma, g: DigitalMap | None = None,
               ) -> tuple[int, str]:
    """A cocycle certificate's value φ(f∘γ) − φ(g∘γ) (0 for g None) and
    its walk γ as points, re-verified by `check_certificate`, which shares
    no code with the search. One that fails its check raises, since the
    lemma behind it is proved."""
    pts = f.codomain.points
    value, why = check_certificate(
        f.codomain, {(pts[u], pts[v]): c for (u, v), c in phi.items()},
        tuple(f.values[i] for i in gamma),
        None if g is None else tuple(g.values[i] for i in gamma))
    if why is not None:
        raise AssertionError(f"cocycle certificate failed its check: {why}")
    return value, ", ".join(str(f.domain.points[i]) for i in gamma)


def cmd_homotopic(args, rep: Report) -> int:
    f, dig1 = _map_from_ref(args.map1)
    g, dig2 = _map_from_ref(args.map2)
    rep.inputs.update({args.map1: dig1, args.map2: dig2})
    refutation: list = []
    w = are_homotopic(f, g, refutation=refutation)
    rep.results["homotopic"] = w is not None
    if w is None:
        for phi, gamma in refutation:
            value, walk = _certified(f, phi, gamma, g)
            rep.notes.append(f"not homotopic: a cocycle's values on the two "
                             f"maps' images of the closed walk {walk} differ "
                             f"by {value}")
        return 2
    rep.results["steps"] = len(w.stages) - 1
    rep.witnesses["domain.img"] = serialize_image(f.domain)
    rep.witnesses["codomain.img"] = serialize_image(f.codomain)
    rep.witnesses["homotopy"] = serialize_homotopy(w, "domain.img",
                                                   "codomain.img")
    return 0


def cmd_contractible(args, rep: Report) -> int:
    img, rep.inputs[args.image] = _image_from_ref(args.image)
    refutation: list = []
    w = contraction(img, refutation=refutation)
    rep.results["contractible"] = w is not None
    if w is None:
        for phi, gamma in refutation:
            value, walk = _certified(DigitalMap.identity(img), phi, gamma)
            rep.notes.append(f"not contractible: a cocycle takes the value "
                             f"{value} on the closed walk {walk}")
        return 2
    rep.results["stages"] = len(w.stages)
    rep.results["rest_point"] = str(w.stages[-1].values[0])
    rep.witnesses["image.img"] = serialize_image(img)
    rep.witnesses["contraction"] = serialize_homotopy(w, "image.img",
                                                      "image.img")
    return 0


def cmd_cat(args, rep: Report) -> int:
    img, rep.inputs[args.image] = _image_from_ref(args.image)
    rep.settings["convention"] = "k-sets"
    # read at call time, so that a lowered sweep limit moves `cat` too
    if len(img.points) > covers.SWEEP_LIMIT:
        r = cat_bounds(img)
        rep.results["cat_lower"] = r.lower
        rep.results["cat_upper"] = r.upper if r.upper is not None else "?"
        rep.notes.extend(r.notes)
        if r.witness:
            rep.witnesses["cover"] = serialize_cover(list(r.witness))
        return 0
    w = cat_exact(img)
    rep.results["cat"] = w.size
    rep.witnesses["image.img"] = serialize_image(img)
    rep.witnesses["cover"] = serialize_cover(
        [piece.points for piece in w.pieces])
    for k, piece in enumerate(w.pieces):
        rep.witnesses[f"piece{k}.img"] = serialize_image(
            induced_subimage(img, piece.points))
        rep.witnesses[f"piece{k}.contraction"] = serialize_homotopy(
            piece.contraction, f"piece{k}.img", "image.img")
    return 0


def _loop_extras(args):
    """corpus:H carries its own group table and preferred cover."""
    if args.image == "corpus:H":
        return get_table("Hrot"), loop_cover()
    return None, None


def cmd_tc(args, rep: Report) -> int:
    img, rep.inputs[args.image] = _image_from_ref(args.image)
    table, cover = _loop_extras(args)
    rep.settings.update({"convention": "k-sets", "mode": args.mode,
                         "m": args.m if args.m is not None else "auto",
                         "n": args.n})
    r = tc_n(img, args.n, table=table, cover=cover, m=args.m,
             strong=args.mode == "strong")
    rep.notes.extend(r.notes)
    if r.exact:
        rep.results["tc"] = r.value
    else:
        rep.results["tc_lower"] = r.lower
        rep.results["tc_upper"] = r.upper if r.upper is not None else "?"
        if args.exact:
            raise ValueError(
                f"exact value not settled: bounds [{r.lower}, "
                f"{r.upper if r.upper is not None else '?'}]")
    if r.witness:
        rep.settings["m"] = length = len(r.witness[0].wedges[0][0]) - 1
        rep.results["pieces"] = len(r.witness)
        rep.witnesses["sections"] = serialize_sections(img, r.witness,
                                                       args.n, length)
    return 0


def cmd_genus(args, rep: Report) -> int:
    img, rep.inputs[args.image] = _image_from_ref(args.image)
    m = args.m if args.m is not None else img.diameter
    rep.settings.update({"mode": args.mode, "m": m, "n": args.n})
    if args.m is None:
        rep.notes.append(f"arm length defaulted to the diameter {m}")
    k, wits = schwarz_genus(EndpointFibration(
        img, args.n, m, strong=args.mode == "strong"))
    rep.results["genus"] = k
    rep.witnesses["sections"] = serialize_sections(img, wits, args.n, m)
    return 0


def cmd_group_check(args, rep: Report) -> int:
    obj, rep.inputs[args.group] = _group_from_ref(args.group)
    strong = args.mode == "strong"
    rep.settings["product"] = "strong" if strong else "min"
    if isinstance(obj, WindowGroup):
        r = window_group_report(obj, strong=strong)
        rep.results["window"] = r.label
        rep.results["ok_on_window"] = r.ok_on_window
        rep.results["alpha_checked"] = r.alpha_checked
        if r.alpha_violation:
            a, b = r.alpha_violation
            rep.results["alpha_violation"] = f"{a} ~ {b}"
        if r.beta_violation:
            a, b = r.beta_violation
            rep.results["beta_violation"] = f"{a} ~ {b}"
        if r.inverse_missing:
            rep.results["inverse_missing"] = ", ".join(
                str(p) for p in r.inverse_missing)
        rep.notes.extend(r.notes)
        return 0 if r.ok_on_window else 2
    v = is_topological_group(obj, strong=strong)
    # axiom failures carry no edge, continuity failures always carry one
    rep.results["group_axioms"] = v.ok or bool(v.alpha_edge or v.beta_edge)
    rep.results["topological"] = v.ok
    if v.failures:
        rep.results["failures"] = "; ".join(v.failures)
    if v.alpha_edge:
        a, b = v.alpha_edge
        rep.results["alpha_violation"] = f"{a} ~ {b}"
    if v.beta_edge:
        a, b = v.beta_edge
        rep.results["beta_violation"] = f"{a} ~ {b}"
    return 0 if v.ok else 2


def cmd_group_scan(args, rep: Report) -> int:
    if args.p is not None and args.image:
        raise ValueError(f"group-scan takes -p <points> or an image, not "
                         f"both: -p {args.p} and {args.image}")
    if args.p is not None:
        img = interval_image(0, args.p - 1)
        ref = f"interval:0:{args.p - 1}"
        dig = digest_text(serialize_image(img))
    elif args.image:
        img, dig = _image_from_ref(args.image)
        ref = args.image
    else:
        raise ValueError("group-scan wants -p <points> or an image")
    rep.inputs[ref] = dig
    strong = args.mode == "strong"
    rep.settings["product"] = "strong" if strong else "min"
    res = scan_group_structures(img, strong=strong)
    rep.results["structures"] = res.total
    rep.results["topological"] = res.topological_count
    rep.results["summary"] = (f"{res.total} structures, "
                              f"{res.topological_count} topological")
    for k, table in enumerate(res.topological):
        rep.witnesses[f"group{k}"] = serialize_group(table, ref)
    for identity, verdict in res.rejected:
        note = f"identity {identity}: "
        if verdict.alpha_edge:
            a, b = verdict.alpha_edge
            note += f"multiplication breaks at {a} ~ {b}"
        elif verdict.beta_edge:
            a, b = verdict.beta_edge
            note += f"inversion breaks at {a} ~ {b}"
        else:
            note += verdict.failures[0] if verdict.failures else "rejected"
        rep.notes.append(note)
    return 0


def cmd_group_product(args, rep: Report) -> int:
    a, dig1 = _group_from_ref(args.group1)
    b, dig2 = _group_from_ref(args.group2)
    if isinstance(a, WindowGroup) or isinstance(b, WindowGroup):
        raise ValueError("group-product works on finite tables, not windows")
    rep.inputs.update({args.group1: dig1, args.group2: dig2})
    strong = args.mode == "strong"
    rep.settings["product"] = "strong" if strong else "min"
    prod = product_group(a, b, strong=strong)
    v = is_topological_group(prod, strong=strong)
    rep.results["points"] = len(prod.image.points)
    rep.results["topological"] = v.ok
    if v.failures:
        rep.results["failures"] = "; ".join(v.failures)
    rep.witnesses["product.img"] = serialize_image(prod.image)
    rep.witnesses["product.group"] = serialize_group(prod, "product.img")
    return 0 if v.ok else 2


def cmd_hom_check(args, rep: Report) -> int:
    src, dig1 = _group_from_ref(args.source)
    dst, dig2 = _group_from_ref(args.target)
    rep.inputs.update({args.source: dig1, args.target: dig2})
    windows = isinstance(src, WindowGroup) or isinstance(dst, WindowGroup)
    if windows:
        if not (isinstance(src, WindowGroup) and isinstance(dst, WindowGroup)):
            raise ValueError("mixing a window group with a finite table "
                             "is not supported")
        name = args.map
        if name.startswith("corpus:"):
            name = name[len("corpus:"):]
        fn = WINDOW_FUNCTIONS.get(name)
        if fn is None:
            raise ValueError(
                f"window groups need a built-in rule; known: "
                f"{', '.join(sorted(WINDOW_FUNCTIONS))}")
        rep.inputs[args.map] = digest_text(f"window function {name}")
        r = window_hom_report(src, dst, fn)
        rep.results["pairs_checked"] = r.pairs_checked
        rep.results["homomorphism"] = r.is_homomorphism
        rep.results["injective_on_window"] = r.injective_on_window
        if r.algebra_violation:
            rep.results["algebra_violation"] = str(r.algebra_violation)
        if r.continuity_violation:
            rep.results["continuity_violation"] = str(r.continuity_violation)
        if r.collision:
            a, b = r.collision
            rep.results["collision"] = f"{a} and {b} share an image"
            rep.notes.append("not an isomorphism: not injective")
        return 0 if r.is_homomorphism else 2
    dm, rep.inputs[args.map] = _map_from_ref(args.map)
    ok, why = is_top_homomorphism(dm, src, dst)
    rep.results["homomorphism"] = ok
    if not ok:
        rep.results["reason"] = why
        return 2
    why, bad = isomorphism_failure(dm)
    rep.results["isomorphism"] = why is None
    if why is not None:
        rep.notes.append(f"not an isomorphism: {why}")
    if dm.is_bijective():
        rep.results["inverse_continuous"] = bad is None
        if bad is not None:
            a, b = bad
            rep.results["inverse_violation"] = f"{a} ~ {b}"
    return 0


def cmd_verify_paper(args, rep: Report) -> int:
    rows = run_reference_rows()
    width = max(len(r.name) for r in rows)
    bad = 0
    for r in rows:
        rep.notes.append(f"{r.name:<{width}}  expected {r.expected}; "
                         f"got {r.computed}  [{r.status}]")
        if not r.ok and not r.status.startswith("inconclusive"):
            bad += 1
    rep.results["rows"] = len(rows)
    rep.results["matched"] = sum(r.status == "match" for r in rows)
    rep.results["within_bound"] = sum(
        r.status == "within paper bound" for r in rows)
    rep.results["inconclusive"] = sum(
        r.status.startswith("inconclusive") for r in rows)
    rep.results["mismatched"] = bad
    return 0 if bad == 0 else 2


COMMANDS = {
    "image-info": cmd_image_info,
    "check-continuity": cmd_check_continuity,
    "homotopic": cmd_homotopic,
    "contractible": cmd_contractible,
    "cat": cmd_cat,
    "tc": cmd_tc,
    "genus": cmd_genus,
    "group-check": cmd_group_check,
    "group-scan": cmd_group_scan,
    "group-product": cmd_group_product,
    "hom-check": cmd_hom_check,
    "verify-paper": cmd_verify_paper,
}


class _Parser(argparse.ArgumentParser):
    """Usage mistakes exit 1; code 2 is reserved for negative verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_from(least: int, want: str) -> Callable[[str], int]:
    """An argparse type: an int of at least `least`. argparse names the
    option in front of the message, so the error says which one is wrong."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"want {want}, got {value}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. argparse parsers keep no state
    between `parse_args` calls, and each build is a reference cycle that
    only the cyclic collector frees, so every `main` call shares it."""
    top = _Parser(
        prog="ditop",
        description="exact computations over finite digital images")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    def mode(p, what=None):
        p.add_argument("--mode", choices=["pointwise", "strong"],
                       default="pointwise", help=what)

    p = sub.add_parser("image-info", help="points, adjacency, connectivity")
    p.add_argument("image", help="corpus:<name> or an image file")

    p = sub.add_parser("check-continuity", help="is a digital map continuous")
    p.add_argument("map", help="corpus:<name> or a map file")

    p = sub.add_parser("homotopic", help="are two maps digitally homotopic")
    p.add_argument("map1")
    p.add_argument("map2")

    p = sub.add_parser("contractible", help="does the identity contract")
    p.add_argument("image")

    p = sub.add_parser("cat", help="digital Lusternik-Schnirelmann category")
    p.add_argument("image")

    p = sub.add_parser("tc", help="higher topological complexity TC_n")
    p.add_argument("image")
    p.add_argument("-n", type=int, default=2, help="number of stops")
    p.add_argument("--m", type=int, default=None, help="arm length")
    mode(p, "wedge step relation")
    p.add_argument("--exact", action="store_true",
                   help="insist on an exact value")

    p = sub.add_parser("genus", help="section count of the endpoint map")
    p.add_argument("image")
    p.add_argument("-n", type=int, default=2, help="number of arms")
    p.add_argument("--m", type=int, default=None, help="arm length")
    mode(p)

    p = sub.add_parser("group-check",
                       help="group axioms and continuity of one structure")
    p.add_argument("group", help="corpus:<name> or a group file")
    mode(p, "product adjacency for the multiplication")

    p = sub.add_parser("group-scan",
                       help="enumerate group structures on a carrier")
    p.add_argument("image", nargs="?", default=None)
    p.add_argument("-p", type=_int_from(1, "a positive point count"),
                   default=None,
                   help="scan the integer interval with this many points")
    mode(p)

    p = sub.add_parser("group-product", help="product of two finite groups")
    p.add_argument("group1")
    p.add_argument("group2")
    mode(p)

    p = sub.add_parser("hom-check",
                       help="is a map a (topological) group homomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map", help="corpus:<name>, a map file, or a built-in "
                               "rule name for window groups")

    sub.add_parser("verify-paper",
                   help="re-derive the bundled reference results")

    for name, p in sub.choices.items():
        p.add_argument("--json", action="store_true",
                       help="print the structured report instead of text")
        p.add_argument("--out", metavar="PATH",
                       help="also write the structured report to a file")
        # one cap on the map-graph states of all the command's searches
        if name in ("homotopic", "contractible", "cat", "tc", "verify-paper"):
            p.add_argument("--budget", type=_int_from(0, "a state count of 0 "
                                                      "or more"),
                           default=NODE_BUDGET,
                           help="map-graph states for the whole command")
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    rep = Report(command=" ".join(argv))
    if "budget" in args:
        rep.settings["budget"] = args.budget
    started = time.monotonic()
    try:
        try:
            with budget(getattr(args, "budget", NODE_BUDGET)):
                code = COMMANDS[args.command](args, rep)
        except BudgetExhausted as err:
            rep.results[args.command] = "unknown"
            rep.notes.append(f"budget exhausted: {err}")
            code = 0
        except CoverImpossible as err:
            rep.results[args.command] = "impossible"
            rep.notes.append(str(err))
            code = 2
        elapsed = time.monotonic() - started
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rep.to_json())
    except (OSError, UnknownCorpusName, ValueError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(rep.to_json())
    else:
        sys.stdout.write(rep.to_text())
    print(f"# elapsed {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
