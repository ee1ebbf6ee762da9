"""The package runs on the standard library alone: every import in a
`ditop` module names a standard-library module or `ditop` itself. The
check reads the source, so it sees imports on every path, run or not.
No module imports `dataclasses`, whose decorator costs every launch."""

from __future__ import annotations

import ast
import pathlib
import sys

import ditop

SOURCE = pathlib.Path(ditop.__file__).parent


def _imports():
    """(file name, top-level module) of every absolute import in a
    `ditop` module."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            yield from ((path.name, name.split(".")[0]) for name in names)


def test_every_import_is_stdlib_or_ditop():
    allowed = set(sys.stdlib_module_names) | {"ditop"}
    assert [(f, m) for f, m in _imports() if m not in allowed] == []


def test_no_module_imports_dataclasses():
    # records are plain classes: `dataclasses` would load `inspect`, `ast`
    # and `dis` and compile generated methods on every launch
    assert [f for f, m in _imports() if m == "dataclasses"] == []
