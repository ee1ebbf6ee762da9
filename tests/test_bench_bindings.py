"""The benchmark wraps solver functions by name from outside `src/`.

Renaming or dropping one of those names breaks the benchmark silently
unless a tier-1 test notices, so this runs the benchmark's own binding
check: every probe target resolves, and every name listed as imported by
name is rebound in each module that holds it.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
