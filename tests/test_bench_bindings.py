"""The benchmark wraps solver functions by name from outside `src/`.

Renaming or dropping one of those names breaks the benchmark silently
unless a tier-1 test notices, so this resolves every probe target with
the tracer's own resolver, in process and without installing the
tracer, and runs the benchmark's own binding check: every name listed
as imported by name is rebound in each module that holds it.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import ditop.cli  # noqa: F401  (imports every ditop module)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_bench_probe_target_resolves():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    broken = []
    for _, _, target, _ in tracing.PROBES:
        try:
            tracing._resolve(target)
        except (AttributeError, KeyError) as missing:
            broken.append(f"{target}: {missing!r}")
    assert broken == []


def test_bench_tracer_binds_every_wrapped_name():
    code = ("import selftest\n"
            "selftest.check_bindings()\n"
            "print('failures', len(selftest.failures))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "failures 0", proc.stdout
