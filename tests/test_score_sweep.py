"""The bit-identity sweep of `tools/score_sweep.py`, on its first five tables."""

import importlib.util
from itertools import combinations
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "score_sweep.py"


def _load():
    spec = importlib.util.spec_from_file_location("score_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


score_sweep = _load()


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
