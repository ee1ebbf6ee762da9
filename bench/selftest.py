"""Self-test of the benchmark itself (about a minute).

    python3 bench/selftest.py

1. Schema: the cheapest case of each workload, untraced and traced,
   through run.py. The last stdout line must have exactly the keys
   correct/attempted/failed/metrics, and the metric names and units must
   be exactly BENCHMARK.json's end_to_end (untraced) or per_layer
   (traced) lists.
2. Bindings: installing the tracer must rebind each wrapped function in
   every module that imported it by name.
3. Probes: a cheap subset of each workload, traced twice. Every count
   must repeat exactly, and every metric in MOVES must be nonzero, which
   catches a wrapper that silently failed to bind.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHEAPEST = {"search": "ring3x3_c2_contractible", "tables": "hrot_check",
            "sections": "verify_paper"}

# The cheapest cases that together reach every layer the workload stresses.
PROBES = {
    "search": "ring3x3_c2_contractible,ring4x4_c2_cat",
    "tables": "hrot_check,scan_p6",
    "sections": "verify_paper,genus_c14",
}

# Metrics that must be nonzero on each probe. This is the layer table of
# bench/README.md, less the metrics it records as structurally zero
# (covers.oracle.hit_ratio everywhere, images.induced and
# images.distance_matrix on tables, fileio.load off `search`) and less
# fileio.serialize on tables, whose only witness comes from the costly
# hrot_product case.
MOVES = {
    "search": [
        "homotopy.neighbor_states.calls", "homotopy.neighbor_states.yielded",
        "homotopy.neighbor_states.self_s", "homotopy.states_per_s",
        "homotopy.bfs.calls", "homotopy.bfs.self_s", "homotopy.bfs.exhausted",
        "homotopy.slide.calls", "homotopy.slide.hits", "homotopy.slide.self_s",
        "homotopy.verify.calls", "homotopy.verify.self_s",
        "covers.oracle.queries", "covers.oracle.predicate_calls",
        "covers.maximal_sets.self_s", "covers.cover_search.self_s",
        "category.piece_contraction.calls",
        "category.piece_contraction.self_s", "category.witness_check.self_s",
        "fileio.load.self_s", "cli.main.self_s",
    ],
    "tables": [
        "images.adjacent.calls", "images.neighbor_index.builds",
        "images.neighbor_index.points", "images.neighbor_index.self_s",
        "maps.continuity.calls", "maps.continuity.edges",
        "maps.continuity.self_s",
        "groups.product.calls", "groups.verify_cayley.self_s",
        "groups.topological.calls", "groups.topological.self_s",
        "groups.enumerate.tables", "groups.enumerate.self_s",
        "report.render.self_s", "cli.main.self_s",
    ],
    "sections": [
        "images.adjacent.calls", "images.neighbor_index.builds",
        "images.neighbor_index.points", "images.neighbor_index.self_s",
        "images.induced.calls", "images.induced.self_s",
        "images.distance_matrix.self_s",
        "pathspace.fiber.calls", "pathspace.fiber.wedges",
        "pathspace.fiber.self_s", "pathspace.wedge_adjacent.calls",
        "pathspace.wedge_adjacent.self_s",
        "complexity.find_section.calls", "complexity.find_section.found",
        "complexity.find_section.self_s", "complexity.verify_section.calls",
        "complexity.verify_section.self_s", "complexity.translation.self_s",
        "fileio.serialize.bytes", "fileio.serialize.self_s",
        "report.render.self_s", "cli.main.self_s",
    ],
}

# Names the tracer must rebind outside their defining module.
IMPORTED_BY_NAME = {
    "ditop.homotopy:slide_nullhomotopy": ["ditop.category", "ditop.complexity"],
    "ditop.homotopy:verify_homotopy": ["ditop.category"],
    "ditop.category:piece_contraction": ["ditop.complexity"],
    "ditop.maps:continuity_violation": ["ditop.homotopy", "ditop.cli"],
    "ditop.covers:maximal_admissible_sets": ["ditop.category"],
    "ditop.groups:is_topological_group": ["ditop.cli", "ditop.complexity"],
    "ditop.fileio:load_image": ["ditop.cli"],
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def run(workload: str, cases: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--cases", cases],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0,
           f"{workload} {cases} trace {trace}: exit {proc.returncode}\n"
           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(spec: dict) -> None:
    for workload, case in CHEAPEST.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = run(workload, case, trace)
            where = f"{workload}/{case} trace {trace}"
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: keys {sorted(doc)}")
            expect(doc["correct"] is True, f"{where}: not correct")
            expect(isinstance(doc["attempted"], int) and doc["attempted"] >= 1
                   and isinstance(doc["failed"], int),
                   f"{where}: attempted/failed {doc['attempted']}, "
                   f"{doc['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            expect(got == want, f"{where}: metrics differ from BENCHMARK.json "
                                f"{key}: {sorted(set(got) ^ set(want))}")
            for name, m in doc["metrics"].items():
                expect(set(m) == {"value", "unit"}
                       and isinstance(m["value"], (int, float)),
                       f"{where}: {name} is {m}")
                if not trace:
                    expect(m["value"] > 0, f"{where}: {name} is 0")


def check_bindings() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ditop.cli  # noqa: F401  (imports every ditop module)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    for target, importers in IMPORTED_BY_NAME.items():
        bound = {b.split(":")[0] for b in tracer.bindings[target]}
        missing = [m for m in importers + [target.split(":")[0]]
                   if m not in bound]
        expect(not missing, f"{target} not rebound in {missing}")


def check_probes() -> None:
    for workload, cases in PROBES.items():
        first = run(workload, cases, 1)["metrics"]
        second = run(workload, cases, 1)["metrics"]
        for name, m in first.items():
            if m["unit"] == "count":
                expect(m["value"] == second[name]["value"],
                       f"{workload}: {name} {m['value']} then "
                       f"{second[name]['value']}")
        for name in MOVES[workload]:
            expect(first[name]["value"] > 0,
                   f"{workload}: {name} is 0, its layer should move here")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_schema(spec)
    check_bindings()
    check_probes()
    print(f"selftest: {'FAILED' if failures else 'ok'} "
          f"({len(failures)} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
