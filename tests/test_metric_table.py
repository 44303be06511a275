"""Sweeps driven by the metric table: every row is scored through the same
by-name entry point the CLI uses, so a new row is tested without new code."""

from pathlib import Path

import numpy as np
import pytest

from gofmetrics.cli import EXIT_OK, EXIT_PARAMS, main
from gofmetrics.confusion import ConfusionMatrix, relabel
from gofmetrics.multiclass import BINARY_METRIC_NAMES, METRICS, evaluate_metric
from helpers import random_counts

TOL = 1e-12


def score(cm, name):
    p = -1.0 if METRICS[name].needs_p else None
    return evaluate_metric(cm, name, p=p).value


@pytest.mark.parametrize("name", sorted(METRICS))
def test_declared_range_and_invariance(name):
    rng = np.random.default_rng(sorted(METRICS).index(name))
    low = -1.0 if METRICS[name].signed else 0.0
    for n in range(2, 7):
        for _ in range(8):
            grid = random_counts(rng, n)
            cm = ConfusionMatrix.from_counts(grid)
            base = score(cm, name)
            assert low <= base <= 1.0, (n, grid.tolist(), base)
            perm = rng.permutation(n)
            assert abs(score(relabel(cm, perm), name) - base) <= TOL, (n, "relabel")
            k = float(rng.integers(2, 8))
            for factor in (k, 2.0**600, 2.0**-600):
                scaled = ConfusionMatrix.from_counts(grid * factor)
                assert abs(score(scaled, name) - base) <= TOL, (n, "rescale", factor)


def test_readme_lists_every_metric():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Available metrics:", 1)[1].split("\n## ", 1)[0]
    for name in METRICS:
        # the one-vs-one rows are documented as one_vs_one_NAME, NAME below
        listed = "`one_vs_one_NAME`" if name.startswith("one_vs_one_") else f"`{name}"
        assert listed in section, name
    for name in BINARY_METRIC_NAMES:
        assert f"`{name}`" in section, name


def test_generalized_mcc_is_declared_signed():
    assert METRICS["generalized_mcc"].signed


def test_option_rules_through_main(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("20,6,0\n2,20,0\n12,12,8\n", encoding="utf-8")

    def exit_code(request):
        code = main(["--input", str(path), "--metric", request])
        capsys.readouterr()
        return code

    for name, info in METRICS.items():
        p = ":p=-1" if info.needs_p else ""
        assert exit_code(name + p) == EXIT_OK, name
        if info.needs_p:
            assert exit_code(name) == EXIT_PARAMS, name
        else:
            assert exit_code(name + ":p=-1") == EXIT_PARAMS, name
        if info.takes_outer:
            assert exit_code(name + p + ":outer=arithmetic") == EXIT_OK, name
        else:
            assert exit_code(name + p + ":outer=arithmetic") == EXIT_PARAMS, name
