"""Checks on the package source itself."""

import ast
from pathlib import Path

import gofmetrics

PACKAGE = Path(gofmetrics.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` strips asserts, so every check must raise explicitly
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found
