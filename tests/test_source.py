"""Checks on the package source itself."""

import ast
from pathlib import Path

import gofmetrics
from gofmetrics import binary, confusion, means, multiclass

MODULES = (means, confusion, binary, multiclass)
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


def test_package_names_are_the_modules_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert gofmetrics.__all__ == expected
    assert len(set(expected)) == len(expected), expected


def test_package_names_resolve_to_their_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gofmetrics, name) is getattr(module, name), (module.__name__, name)


def test_by_name_entry_point_is_public():
    assert gofmetrics.evaluate_metric is multiclass.evaluate_metric
    assert gofmetrics.METRICS is multiclass.METRICS
