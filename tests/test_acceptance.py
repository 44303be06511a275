"""Acceptance gate: the end-to-end claims this package must honor.

Each test prints one "[criterion NN] PASS/FAIL" line straight to the
terminal (bypassing capture) so the whole gate is visible in any run.
"""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from gofmetrics.confusion import ConfusionMatrix, relabel, transpose
from gofmetrics.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    AveragingSpec,
    power_mean,
)
from gofmetrics.multiclass import (
    cramers_phi,
    generalized_f1,
    generalized_fm,
    generalized_mcc,
    lp_multiclass,
    one_vs_one_average,
    perfect_fit_permutation,
    two_class_score,
)
import gofmetrics
from gofmetrics.cli import main
from helpers import (
    random_counts,
    random_permutation_counts,
    random_positive_marginal_counts,
)

HERE = Path(__file__).parent


@contextlib.contextmanager
def verdict(capsys, number, title):
    """Print one pass/fail line for a criterion, whatever happens inside."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {number:02d}] FAIL {title}")
        raise
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] PASS {title}{info['detail']}")


def test_01_two_class_equivalence(capsys):
    # the determinant of the 2x2 normalized matrix must agree with the
    # closed-form MCC and with the Pearson correlation of the expanded
    # 0/1 label vectors
    with verdict(capsys, 1, "two-class determinant = closed form = Pearson") as info:
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        cases = 0
        while cases < 1000:
            grid = random_positive_marginal_counts(rng, 2, high=30)
            cm = ConfusionMatrix.from_counts(grid)
            det = generalized_mcc(cm)
            tp, fn = grid[0]
            fp, tn = grid[1]
            closed = oracles.mcc_closed_form(tp, fn, fp, tn)
            truth, pred = oracles.expand_labels(grid)
            r = oracles.pearson(truth, pred)
            assert det == pytest.approx(closed, abs=1e-10)
            assert det == pytest.approx(r, abs=1e-10)
            cases += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        info["detail"] = f" ({cases} matrices in {elapsed:.2f}s)"


def test_02_determinant_bound_and_witnesses(capsys):
    # |score| can never exceed 1, and any score at the boundary must come
    # with a recoverable output permutation
    with verdict(capsys, 2, "determinant bound holds, boundary cases yield witnesses") as info:
        rng = np.random.default_rng(102)
        start = time.perf_counter()
        cases = 0
        boundary = 0
        while cases < 10000:
            n = int(rng.integers(2, 9))
            if rng.random() < 0.1:
                grid = random_permutation_counts(rng, n)
            else:
                grid = random_counts(rng, n)
            cm = ConfusionMatrix.from_counts(grid)
            value = generalized_mcc(cm)
            assert abs(value) <= 1.0 + 1e-10
            if abs(value) > 1.0 - 1e-10:
                witness = perfect_fit_permutation(cm)
                assert witness is not None, f"no witness for |score|={abs(value)}"
                boundary += 1
            cases += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        assert boundary > 500  # the permutation injections must actually hit 1
        info["detail"] = f" ({cases} matrices, {boundary} at the boundary, {elapsed:.1f}s)"


def test_03_invariance_suite(capsys):
    # relabeling, transposition, and uniform integer rescaling must leave
    # every score unchanged
    metrics = {
        "generalized_mcc": generalized_mcc,
        "generalized_f1": lambda cm: generalized_f1(cm, ARITHMETIC),
        "generalized_fm": lambda cm: generalized_fm(cm, GEOMETRIC),
        "cramers_phi": cramers_phi,
        "lp_multiclass": lambda cm: lp_multiclass(cm, -0.5),
        "one_vs_one_mcc": lambda cm: one_vs_one_average(cm, "mcc").value,
        "one_vs_one_f1": lambda cm: one_vs_one_average(cm, "f1").value,
        "one_vs_one_fowlkes_mallows": lambda cm: one_vs_one_average(
            cm, "fowlkes_mallows"
        ).value,
        "one_vs_one_lp_four_rate": lambda cm: one_vs_one_average(
            cm, "lp_four_rate", p=-1.0
        ).value,
    }
    with verdict(capsys, 3, "relabel/transpose/rescale invariance for every metric") as info:
        rng = np.random.default_rng(103)
        start = time.perf_counter()
        cases = 0
        while cases < 1000:
            n = int(rng.integers(2, 6))
            grid = random_counts(rng, n, high=200)
            cm = ConfusionMatrix.from_counts(grid)
            perm = list(rng.permutation(n))
            relabeled = relabel(cm, perm)
            transposed = transpose(cm)
            scaled = [
                ConfusionMatrix.from_counts(grid * k) for k in (2, 10, 1000)
            ]
            for name, metric in metrics.items():
                base = metric(cm)
                assert abs(metric(relabeled) - base) <= 1e-12, (name, "relabel")
                assert abs(metric(transposed) - base) <= 1e-12, (name, "transpose")
                for k, big in zip((2, 10, 1000), scaled):
                    assert abs(metric(big) - base) <= 1e-12, (name, f"scale x{k}")
            cases += 1
        elapsed = time.perf_counter() - start
        info["detail"] = f" ({cases} cases x {len(metrics)} metrics, {elapsed:.1f}s)"


def test_04_golden_values(capsys):
    with verdict(capsys, 4, "golden values: permutation, identity, pinned 3x3") as info:
        # a perfect fit up to a cyclic relabeling still scores exactly 1
        cyclic = ConfusionMatrix.from_counts([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert generalized_mcc(cyclic) == 1.0
        witness = perfect_fit_permutation(cyclic)
        assert witness is not None and witness.parity == "even"

        ident = ConfusionMatrix.from_counts(np.identity(4))
        assert generalized_mcc(ident) == 1.0
        assert generalized_f1(ident, ARITHMETIC) == 1.0
        assert generalized_f1(ident, HARMONIC) == 1.0
        assert cramers_phi(ident) == 1.0

        # A widely circulated value for this example is 0.235; it traces to
        # a reference script whose row/column alignment is buggy.  Direct
        # evaluation of the normalized matrix determinant, cross-checked by
        # cofactor expansion and symbolic arithmetic (97*sqrt(46189)/92378),
        # gives 0.22566928801238..., so that is what this test pins.
        grid = [[20, 6, 0], [2, 20, 0], [12, 12, 8]]
        cm = ConfusionMatrix.from_counts(grid)
        value = generalized_mcc(cm)
        ref = oracles.det_cofactor(oracles.ratio_matrix(grid))
        assert ref == pytest.approx(0.22566928801238004, abs=1e-12)
        assert value == pytest.approx(ref, abs=1e-9)
        assert abs(value - 0.235) > 5e-3  # demonstrably not the circulated value
        info["detail"] = f" (pinned 3x3 value {value:.12f})"


def test_05_cramers_matches_absolute_mcc(capsys):
    with verdict(capsys, 5, "two-class association equals |MCC|") as info:
        rng = np.random.default_rng(105)
        cases = 0
        while cases < 1000:
            grid = random_counts(rng, 2, high=80)
            cm = ConfusionMatrix.from_counts(grid)
            assert cramers_phi(cm) == pytest.approx(
                abs(two_class_score(cm, "mcc")), abs=1e-10
            )
            cases += 1
        info["detail"] = f" ({cases} matrices)"


def test_06_mean_family(capsys):
    # the inequality chain, monotonicity in p, the exact collapses of the
    # power mean onto its named special cases, and continuity at p = 0
    with verdict(capsys, 6, "mean family: chain, monotonicity, collapses, continuity") as info:
        rng = np.random.default_rng(106)
        start = time.perf_counter()
        p_grid = [-math.inf, -3.0, -1.0, -0.4, 0.0, 0.5, 1.0, 2.0, math.inf]
        cases = 0
        while cases < 10000:
            k = int(rng.integers(1, 7))
            values = tuple(float(v) for v in rng.uniform(0.0, 1.0, size=k))
            if rng.random() < 0.2:
                values = values[: k - 1] + (0.0,) if k > 1 else (0.0,)

            h = power_mean(values, -1.0)
            g = power_mean(values, 0.0)
            a = power_mean(values, 1.0)
            assert min(values) <= h + 1e-12
            assert h <= g + 1e-12
            assert g <= a + 1e-12
            assert a <= max(values) + 1e-12

            assert power_mean(values, 1.0) == a
            assert power_mean(values, -1.0) == h
            assert power_mean(values, 0.0) == g
            assert power_mean(values, math.inf) == max(values)
            assert power_mean(values, -math.inf) == min(values)

            if all(v > 1e-3 for v in values):
                previous = None
                for p in p_grid:
                    current = power_mean(values, p)
                    if previous is not None:
                        assert previous <= current + 1e-12
                    previous = current
                for eps in (1e-6, -1e-6):
                    assert abs(power_mean(values, eps) - g) <= 1e-4
            cases += 1
        elapsed = time.perf_counter() - start
        info["detail"] = f" ({cases} tuples in {elapsed:.1f}s)"


def test_07_f1_fm_ordering(capsys):
    with verdict(capsys, 7, "generalized F1 never exceeds generalized FM") as info:
        rng = np.random.default_rng(107)
        outers = (ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5),
                  AveragingSpec.power(-2.0))
        cases = 0
        while cases < 1000:
            n = int(rng.integers(2, 7))
            cm = ConfusionMatrix.from_counts(random_counts(rng, n))
            for outer in outers:
                assert generalized_f1(cm, outer) <= generalized_fm(cm, outer) + 1e-12
            cases += 1
        info["detail"] = f" ({cases} matrices x {len(outers)} outers)"


def test_08_bias_detection(capsys):
    # a never-predicted class must zero the determinant score outright,
    # even while plain accuracy looks excellent
    with verdict(capsys, 8, "never-predicted class zeroes the score, accuracy blind") as info:
        grid = np.array(
            [
                [96, 0, 0, 0],
                [0, 95, 0, 0],
                [0, 0, 97, 0],
                [2, 2, 2, 0],
            ],
            dtype=float,
        )
        cm = ConfusionMatrix.from_counts(grid)
        accuracy = float(np.trace(grid)) / float(grid.sum())
        assert accuracy > 0.9
        assert generalized_mcc(cm) == 0.0

        rng = np.random.default_rng(108)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            base = random_counts(rng, n)
            wide = np.zeros((n + 1, n + 1))
            wide[:n, :n] = base
            wide[n, : rng.integers(1, n + 1)] = 1.0  # the new class is real
            assert generalized_mcc(ConfusionMatrix.from_counts(wide)) == 0.0
        info["detail"] = f" (accuracy {accuracy:.3f} with score 0.0, plus 200 random cases)"


def test_09_screening_scenario(capsys):
    # 1000 sick / 49500 healthy with 99% sensitivity and 1% false-positive
    # rate: every third positive call is wrong, and the correlation scores
    # say so while accuracy does not
    with verdict(capsys, 9, "imbalanced screening: correlation far below accuracy") as info:
        cm = ConfusionMatrix.from_counts([[990, 10], [495, 49005]])
        mcc, f1 = two_class_score(cm, "mcc"), two_class_score(cm, "f1")
        accuracy = float(np.trace(cm.counts)) / cm.total
        assert abs(two_class_score(cm, "precision") - 2 / 3) <= 0.01
        assert two_class_score(cm, "sensitivity") == pytest.approx(0.99, abs=1e-12)
        assert two_class_score(cm, "specificity") == pytest.approx(0.99, abs=1e-12)
        assert accuracy == pytest.approx(0.99, abs=1e-12)

        # direct evaluation of the closed forms on the four cells
        tp, fn, fp, tn = 990.0, 10.0, 495.0, 49005.0
        mcc_direct = (tp * tn - fp * fn) / math.sqrt(
            (tp + fp) * (tp + fn) * (tn + fn) * (tn + fp)
        )
        f1_direct = 2 * tp / (2 * tp + fp + fn)
        assert mcc == pytest.approx(mcc_direct, abs=1e-12)
        assert mcc == pytest.approx(0.8081666873480289, abs=1e-12)
        assert f1 == pytest.approx(f1_direct, abs=1e-12)

        assert mcc < accuracy - 0.1
        assert f1 < accuracy - 0.1
        assert two_class_score(cm, "npv") > 0.999
        info["detail"] = f" (accuracy {accuracy:.4f}, mcc {mcc:.4f}, f1 {f1:.4f})"


CLI_GOLDENS = [
    (
        "identity4_report.json",
        [
            "--input", "data/identity4.csv",
            "--metric", "generalized_mcc",
            "--metric", "generalized_f1",
            "--metric", "cramers_phi",
            "--output", "json",
        ],
    ),
    (
        "example3x3_report.json",
        [
            "--input", "data/example3x3.csv",
            "--metric", "generalized_mcc",
            "--output", "json",
        ],
    ),
    (
        "perfect_pairs_report.json",
        [
            "--input", "data/perfect_pairs.csv",
            "--format", "pairs_csv",
            "--metric", "generalized_mcc",
            "--metric", "generalized_f1",
            "--metric", "generalized_fm",
            "--metric", "cramers_phi",
            "--metric", "lp_multiclass:p=-1",
            "--metric", "one_vs_one_mcc",
            "--metric", "one_vs_one_f1",
            "--metric", "one_vs_one_f1_zero",
            "--metric", "one_vs_one_fowlkes_mallows",
            "--metric", "one_vs_one_lp_four_rate:p=-1",
            "--output", "json",
        ],
    ),
]


def test_10_cli_golden_files(capsys, monkeypatch):
    with verdict(capsys, 10, "CLI reports byte-identical to golden files") as info:
        monkeypatch.chdir(HERE)
        checked = 0
        for golden_name, argv in CLI_GOLDENS:
            golden = (HERE / "goldens" / golden_name).read_text(encoding="utf-8")
            outputs = []
            for _ in range(2):
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], f"non-deterministic output for {golden_name}"
            assert outputs[0] == golden, f"report drifted from {golden_name}"
            json.loads(outputs[0])  # still valid JSON
            checked += 1
        info["detail"] = f" ({checked} invocations, each run twice)"


def test_cli_goldens_under_python_optimize():
    # -O strips asserts, so the CLI's checks must not be asserts; the
    # child imports the same gofmetrics package this test run imports
    package_root = str(Path(gofmetrics.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for golden_name, argv in CLI_GOLDENS:
        child = subprocess.run(
            [sys.executable, "-O", "-m", "gofmetrics.cli", *argv],
            cwd=HERE, env=env, capture_output=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        assert child.stdout == (HERE / "goldens" / golden_name).read_bytes(), golden_name
        # a numpy warning would print here without failing the run
        assert child.stderr == b"", child.stderr.decode(errors="replace")
