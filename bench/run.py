"""Solver benchmark for ditop: run one workload, check it, print metrics.

    python3 bench/run.py --workload search|tables|sections --seed N \
        --seconds S --trace 0|1

Run from the repository root; the solver is imported from `src/`. The
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

- `--trace 0` reports the end-to-end metrics: `wall_s` (the workload's
  `main` call times summed, median per case over the passes that fit in
  `--seconds`), `answered_frac` (share of case runs that returned a
  verdict: not budget-exhausted, not an error, not past the case cap),
  `peak_rss_mb` (this process's `ru_maxrss` after its last case) and
  `setup_s` (median time for a fresh interpreter to `import ditop.cli`).
- `--trace 1` reports the per-layer metrics of tracing.py from one traced
  pass, and `trace.overhead_s`, its time minus an untraced pass's.

`wall_s`, `setup_s` and `trace.overhead_s` are seconds at a reference
host speed, not raw wall time: each `main` call is scaled by a speed
probe timed around and during it (speed.py), and each launch by bare
interpreter launches alternated with it. The `#` lines before the
result give the raw wall times beside them.

Each run is one fresh interpreter. `setup_s` is measured first, in child
interpreters, which do not count toward this process's `ru_maxrss`; then
`ditop` is imported here and every case runs in-process. `correct` is
false when a verdict contradicts its known answer, a witness fails
re-verification, or a case's stdout digest differs between the passes of
this run, the traced pass included.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from cases import WORKLOADS
from inputs import write_inputs
from speed import Clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_LAUNCHES = 11
BARE_REF_S = 0.05  # `python3 -c pass` at the reference host speed
RUN_LIMIT_S = 170  # the whole run, setup launches included


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import ditop.cli: (raw,
    at the reference host speed). Launches of a bare interpreter,
    alternated with them, are the speed probe: a launch is scaled by
    BARE_REF_S over the bare launches' median."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def launch(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=WORK,
                       check=True)
        return time.perf_counter() - t0

    bare, ditop = [], []
    for _ in range(SETUP_LAUNCHES):
        bare.append(launch("pass"))
        ditop.append(launch("import ditop.cli"))
    raw = statistics.median(ditop)
    return raw, raw * BARE_REF_S / statistics.median(bare)


def digest_problems(runs: list[list[dict]]) -> list[str]:
    """Each case's stdout digest must be the same in every pass of a run."""
    first: dict[str, str] = {}
    problems = []
    for rec in (r for records in runs for r in records):
        want = first.setdefault(rec["case"], rec["digest"])
        if rec["digest"] != want:
            problems.append(f"{rec['case']}: stdout digest "
                            f"{rec['digest'][:16]} differs from {want[:16]}")
    return problems


def measure(cases, images, deadline: float, trace: bool) -> dict:
    """Untraced passes while another fits before `deadline` (a
    perf_counter time); traced, one untraced pass and one traced pass.
    Stops at a wrong verdict."""
    from gate import check_pass, run_pass
    from tracing import Tracer

    # Probes inside a traced pass would land in its spans.
    clock = Clock(sample=not trace)
    out: dict = {"passes": []}
    pass_s = []  # each pass's wall time, gate checks included
    t0 = time.perf_counter()
    records = run_pass(cases, images, clock)
    right = check_pass(cases, images, records, capped=True)
    out["passes"].append(records)
    pass_s.append(time.perf_counter() - t0)
    if trace and right:
        tracer = Tracer()
        tracer.install()
        traced = run_pass(cases, images, clock)
        metrics = tracer.metrics()
        check_pass(cases, images, traced, capped=False)
        out["traced"] = traced
        untraced_s = sum(r["seconds"] for r in records)
        traced_s = sum(r["seconds"] for r in traced)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["metrics"] = metrics
    while right and not trace:
        t0 = time.perf_counter()
        if t0 + max(pass_s) > deadline:
            break
        records = run_pass(cases, images, clock)
        right = check_pass(cases, images, records, capped=True)
        out["passes"].append(records)
        pass_s.append(time.perf_counter() - t0)
    return out


def past_limit(signum, frame) -> None:
    # sys.__stderr__: a case in progress has sys.stderr redirected.
    sys.__stderr__.write(f"error: the run passed its {RUN_LIMIT_S} s limit\n")
    sys.__stderr__.flush()
    os._exit(1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--cases", default="",
                    help="comma-separated subset of cases (for the self-test)")
    args = ap.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "ditop", "cli.py")):
        print(f"error: no solver sources under {SRC}", file=sys.stderr)
        return 1
    cases = WORKLOADS[args.workload]
    if args.cases:
        wanted = args.cases.split(",")
        cases = tuple(c for c in cases if c.name in wanted)
        if len(cases) != len(wanted):
            ap.error(f"unknown case in {args.cases!r}")
    signal.signal(signal.SIGALRM, past_limit)
    signal.alarm(RUN_LIMIT_S)

    os.makedirs(WORK, exist_ok=True)
    images = write_inputs(args.seed,
                          os.path.join(WORK, f"inputs-seed{args.seed}"))
    setup_raw_s, setup_s = measure_setup() if not args.trace else (0, 0)
    sys.path.insert(0, SRC)
    # The setup launches count toward --seconds.
    result = measure(cases, images, started + args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = result["passes"] + ([result["traced"]] if "traced" in result else [])
    records = [r for records in runs for r in records]
    problems = [r["wrong"] for r in records if "wrong" in r]
    problems += digest_problems(runs)
    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    answered = sum(r["status"] == "ok" for r in records)

    names = [r["case"] for r in runs[0]]
    for name in names:
        mine = [r for r in records if r["case"] == name]
        secs = statistics.median(r["seconds"] for r in mine)
        raw = statistics.median(r["raw_s"] for r in mine)
        print(f"# {args.workload}/{name}: median {secs:.3f} ref-s "
              f"({raw:.3f} s wall) over "
              f"{len(mine)} run(s), status "
              f"{'/'.join(sorted({r['status'] for r in mine}))}, "
              f"stdout sha256 {mine[0]['digest'][:16]}")
    for problem in problems:
        print(f"# WRONG: {problem}")

    if args.trace and "metrics" not in result:  # stopped at a wrong verdict
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    else:
        wall = sum(statistics.median(r["seconds"] for r in records
                                     if r["case"] == name)
                   for name in names)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "answered_frac": {"value": answered / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    if not args.trace:
        print(f"# setup: median {setup_s:.4f} ref-s ({setup_raw_s:.4f} s "
              f"wall) over {SETUP_LAUNCHES} launches")
    print(f"# passes: {len(result['passes'])} untraced"
          f"{', 1 traced' if 'traced' in result else ''}; "
          f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
