"""Hash every score and refusal of a fixed sweep of tables, to show two checkouts agree.

    PYTHONPATH=src python3 tools/score_sweep.py

It scores 600 seeded tables of 2 to 20 classes with whichever `gofmetrics`
is on PYTHONPATH and prints the number of records and the sha256 of their
lines, so running it with each checkout's `src` tells whether a change kept
every value's bits.  The tables are integer tables with zeros, permutation
tables, tables of the edge cells 0, 5e-324, 1e-310, 2^-511 and 1e300 (alone
and mixed with integers), integers times 1e298, and smoothed integer tables.
Each table is built once and scored in one sequence: every `METRICS` row
under each of `OUTERS` and `EXPONENTS` through `evaluate_metric` (so the
options a row refuses are records too), `two_class_score` of each class
pair's 2x2 sub-table with either class positive under each exponent at
n <= 5 (so the pair values a one-vs-one average folds away are records of
their own), and the cells of `normalized_matrix`.
A value is recorded as `float.hex`; a `ValueError`, an `ArithmeticError` or
a `RuntimeWarning` by its type and message.

`records()` yields the records, so a diff between checkouts is

    PYTHONPATH=src:tools python3 -c \\
        'import score_sweep as s; print(*map(s.line, s.records()), sep="\\n")' > a.txt

run in each checkout, then `diff a.txt b.txt`.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from itertools import combinations
from typing import Callable, Iterator

import numpy as np

from gofmetrics.confusion import ConfusionMatrix, normalized_matrix, smooth
from gofmetrics.means import ARITHMETIC, GEOMETRIC, HARMONIC, MAX, MIN, AveragingSpec
from gofmetrics.multiclass import METRICS, BINARY_METRIC_NAMES, evaluate_metric, two_class_score

TABLES = 600
SEED = 30
EDGE_CELLS = (0.0, 5e-324, 1e-310, 2.0**-511, 1e300)
OUTERS = (None, HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX,
          AveragingSpec.power(0.5), AveragingSpec.power(-2.0))
EXPONENTS = (None, -math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
PAIR_CLASSES = 5  # up to this many classes, every pair's 2x2 sub-table is scored too


def tables(count: int = TABLES) -> Iterator[np.ndarray]:
    """`count` seeded grids, the kinds in turn, of 2 to 20 classes."""
    rng = np.random.default_rng(SEED)
    for k in range(count):
        n = int(rng.integers(2, 21))
        integers = rng.integers(0, 50, (n, n)) * (rng.random((n, n)) < 0.7)
        grid = integers  # kinds 0 and 5; `records` smooths kind 5
        kind = k % 6
        if kind == 1:  # a permutation's cells: a perfect fit up to class order
            grid = np.zeros((n, n))
            grid[np.arange(n), rng.permutation(n)] = rng.integers(1, 50, n)
        elif kind == 2:
            grid = rng.choice(EDGE_CELLS, (n, n))
        elif kind == 3:
            grid = np.where(rng.random((n, n)) < 0.5, rng.choice(EDGE_CELLS, (n, n)), integers)
        elif kind == 4:
            grid = integers * 1e298
        yield grid.astype(float)


def _record(score: Callable[[], object]) -> str:
    # a value's float.hex, or its refusal by type and message; a warning is a refusal
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = score()
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"
    return " ".join(map(float.hex, value)) if isinstance(value, list) else value.hex()


def records(count: int = TABLES) -> Iterator[tuple[int, str, str]]:
    """(table index, request, record) for every score of the sweep, in order."""
    for index, grid in enumerate(tables(count)):
        try:
            cm = ConfusionMatrix.from_counts(grid)
        except ValueError as exc:  # an edge table may be all zeros
            yield index, "from_counts", f"ValueError: {exc}"
            continue
        if index % 6 == 5:
            cm = smooth(cm, 0.5)
        for name in METRICS:
            for outer in OUTERS:
                for p in EXPONENTS:
                    request = f"{name} outer={outer and outer.name} p={p}"
                    yield index, request, _record(lambda: evaluate_metric(cm, name, outer, p).value)
        for pair in combinations(range(cm.n), 2) if cm.n <= PAIR_CLASSES else ():
            yield from _pair_records(index, cm.counts[np.ix_(pair, pair)], pair)
        yield index, "normalized_matrix", _record(lambda: normalized_matrix(cm).ravel().tolist())


def _pair_records(
    index: int, counts: np.ndarray, pair: tuple[int, int]
) -> Iterator[tuple[int, str, str]]:
    # every two-class score of one pair's 2x2 sub-table, built once
    name = "two_class_score pair={},{}".format(*pair)
    try:
        sub = ConfusionMatrix.from_counts(counts)
    except ValueError as exc:  # two classes that never meet
        yield index, name, f"ValueError: {exc}"
        return
    for metric in BINARY_METRIC_NAMES:
        for positive in (0, 1):
            for p in EXPONENTS:
                request = f"{name} {metric} positive={positive} p={p}"
                yield index, request, _record(lambda: two_class_score(sub, metric, positive, p))


def line(record: tuple[int, str, str]) -> str:
    """One record as the tab-separated line that is hashed."""
    return "\t".join(map(str, record))


def digest(count: int = TABLES) -> tuple[int, str]:
    """The number of records and the sha256 of their lines."""
    sha = hashlib.sha256()
    total = 0
    for record in records(count):
        sha.update(line(record).encode() + b"\n")
        total += 1
    return total, sha.hexdigest()


def main() -> None:
    total, sha = digest()
    print(f"{total} records sha256 {sha}")


if __name__ == "__main__":
    main()
