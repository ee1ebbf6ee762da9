"""A command as a user runs it: one fresh interpreter per call.

Every other test runs with the whole package already imported, so a
name used at import time before its module defines it would pass there
and fail at a real launch. These start `python` anew with `src` on
`PYTHONPATH`. The launch must also stay cheap: `import ditop.cli` loads
every `ditop` module up front, and none of the standard library that
only code generation needs (`dataclasses` and what it imports).
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from ditop.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _python(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          capture_output=True, timeout=120)


def _modules_after(code: str) -> set[str]:
    proc = _python("-c", f"{code}\nimport sys\nprint(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.decode().split())


def test_the_cli_import_loads_no_code_generation_modules():
    # what a bare interpreter loads (`site` differs between machines) is
    # not the package's cost
    loaded = _modules_after("import ditop.cli") - _modules_after("pass")
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    # nothing is deferred to a function-local import: all 14 modules load
    assert {m for m in loaded if m.startswith("ditop")} == {
        "ditop", "ditop.category", "ditop.cli", "ditop.complexity",
        "ditop.corpus", "ditop.covers", "ditop.fileio", "ditop.groups",
        "ditop.homotopy", "ditop.images", "ditop.knownvalues", "ditop.maps",
        "ditop.pathspace", "ditop.report"}


@pytest.mark.parametrize("argv", [["verify-paper", "--json"],
                                  ["tc", "corpus:H", "-n", "3", "--json"]])
def test_a_fresh_launch_prints_what_an_in_process_call_prints(
        capsys, tmp_path, argv):
    proc = _python("-m", "ditop", *argv, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert main(list(argv)) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
