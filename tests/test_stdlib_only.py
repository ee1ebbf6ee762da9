"""The package runs on the standard library alone: every import in a
`ditop` module names a standard-library module or `ditop` itself. The
check reads the source, so it sees imports on every path, run or not."""

from __future__ import annotations

import ast
import pathlib
import sys

import ditop

SOURCE = pathlib.Path(ditop.__file__).parent


def test_every_import_is_stdlib_or_ditop():
    allowed = set(sys.stdlib_module_names) | {"ditop"}
    foreign = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
