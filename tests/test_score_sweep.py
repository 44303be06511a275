"""The bit-identity sweeps of `tools/score_sweep.py`, on their first tables."""

import importlib.util
from itertools import combinations
from pathlib import Path

from gofmetrics import confusion

TOOL = Path(__file__).resolve().parents[1] / "tools" / "score_sweep.py"


def _load():
    spec = importlib.util.spec_from_file_location("score_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


score_sweep = _load()


def test_wide_sizes_hold_both_sides_of_the_sparse_gate():
    # a table just below the sparse kernels' one gate and one at it, wherever it moves
    gate = confusion._SPARSE_MIN_N
    assert {gate - 1, gate} <= set(score_sweep.WIDE_SIZES)


def test_two_runs_hash_alike():
    count, sha = score_sweep.digest(5)
    assert (count, sha) == score_sweep.digest(5)
    records = list(score_sweep.records(5))
    results = [result for _, _, result in records]
    assert count == len(results)
    # the sweep holds values and refusals both
    assert any(result.startswith("0x") for result in results)
    assert any(result.startswith("ValueError: ") for result in results)
    # and every pair value of a table of at most five classes (table 0 has four)
    pairs = {request.split()[1] for _, request, _ in records if request.startswith("two_class")}
    assert pairs == {f"pair={i},{j}" for i, j in combinations(range(4), 2)}


def test_two_wide_runs_hash_alike():
    # the first three wide tables: a sparse table of 256 classes, it smoothed, and another
    count, sha = score_sweep.wide_digest(3)
    assert (count, sha) == score_sweep.wide_digest(3)
    records = list(score_sweep.wide_records(3))
    assert count == len(records) == 9
    assert {request.split()[-1] for _, request, _ in records} == {
        "generalized_mcc", "cramers_phi", "_log_det"
    }
    # each record a value, and the determinant's a (sign, log|det N|, rounding) triple
    assert all(result.startswith(("0x", "-0x")) for _, _, result in records)
    assert all(len(result.split()) == 3 for _, request, result in records if "_log_det" in request)
