"""The count table, its validation and transforms, and its normalization N.

Rows index the true class, columns the predicted class, in the order given
by `labels`.  Counts are stored as a read-only float64 array so smoothed
(fractional) tables and raw integer tallies share one representation.

`normalized_matrix` returns the paper's N as a read-only array: cell by
cell, the geometric mean of the two conditional rates P(true i | predicted j)
and P(predicted j | true i), each one whole-array division (0 over a zero
sum), so that

    N[i][j] = C[i][j] / sqrt(row_sum(i) * col_sum(j))

which is the matrix whose determinant the multiclass module turns into a
correlation-style score.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .means import GEOMETRIC, _pair_average

__all__ = [
    "ConfusionMatrix",
    "smooth",
    "normalized_matrix",
    "transpose",
    "relabel",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    """A square table of class-vs-class counts with its label order.

    Attributes:
        labels: class names, one per row/column, all distinct.
        counts: (n, n) float64 array, counts[i][j] = number of samples of
            true class i that were predicted as class j.  Read-only.
        total: float(counts.sum()); `from_counts` keeps the sum it validated
            the table with, so the table is summed once.
    """

    labels: tuple[str, ...]
    counts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @cached_property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @cached_property
    def total(self) -> float:
        return float(self.counts.sum())

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    @classmethod
    def from_counts(
        cls,
        grid: Sequence[Sequence[float]] | np.ndarray,
        labels: Sequence[str] | None = None,
    ) -> "ConfusionMatrix":
        """Validate a square grid of non-negative cell values.

        Labels default to class_0 ... class_{n-1}.  Cells may be fractional
        (smoothing produces such tables); they must be finite, non-negative,
        and not all zero, and their sum must be finite too.  A cell that is
        no number (a str, bytes, bool, complex, None, list or dict) is refused,
        and so is a grid or a row that is a str, bytes or mapping.  A grid or
        row that is an iterator is read once, as its list would be.
        """
        # a float or int array is numbers by its dtype alone
        if not (isinstance(grid, np.ndarray) and grid.dtype.kind in "fiu"):
            grid = _check_cells(grid)
        try:
            counts = np.array(grid, dtype=float)  # the one copy
        except (ValueError, TypeError):
            # every cell is a number by now, so the rows are ragged
            raise ValueError("non-square grid: rows have unequal lengths") from None
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"non-square grid: shape {counts.shape}")
        side = counts.shape[0]
        if side < 2:
            raise ValueError(f"n < 2: need at least two classes, got {side}")
        if labels is None:
            labels = _default_labels(side)
        elif isinstance(labels, str):
            raise ValueError(f"labels must be a list of names, not the string {labels!r}")
        else:
            labels = tuple(str(lab) for lab in labels)
            if len(labels) != side:
                raise ValueError(
                    f"label count {len(labels)} does not match grid side {side}"
                )
            if len(set(labels)) != side:
                raise ValueError("duplicate labels")
        # NaN fails the min test, +inf and finite cells whose sum overflows
        # the sum test; the scans below tell these apart
        with np.errstate(over="ignore"):
            total = counts.sum()
        if not (counts.min() >= 0 and np.isfinite(total)):
            bad = ~np.isfinite(counts)
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                raise ValueError(f"non-finite cell at row {i}, column {j}")
            neg = counts < 0
            if neg.any():
                i, j = map(int, np.argwhere(neg)[0])
                raise ValueError(
                    f"negative cell at row {i}, column {j}: {counts[i, j]}"
                )
            raise ValueError(_overflow_message(counts))
        if total == 0:
            raise ValueError("all cells are zero")
        counts.setflags(write=False)
        cm = cls(labels, counts)
        # the validating sum is the one `total` would take; fill its cache
        vars(cm)["total"] = float(total)
        return cm

    @classmethod
    def from_label_pairs(
        cls,
        true_labels: Iterable[object],
        predicted_labels: Iterable[object],
    ) -> "ConfusionMatrix":
        """Tally paired (true, predicted) label sequences.

        The pairs are counted with `Counter` and the counts go through
        `from_pair_counts`, whose label rules apply.
        """
        truths = list(true_labels)
        preds = list(predicted_labels)
        if len(truths) != len(preds):
            raise ValueError(
                f"length mismatch: {len(truths)} true labels "
                f"vs {len(preds)} predicted"
            )
        if not truths:
            raise ValueError("empty label sequences")
        return cls.from_pair_counts(Counter(zip(truths, preds)))

    @classmethod
    def from_pair_counts(
        cls, pair_counts: Mapping[tuple[object, object], float]
    ) -> "ConfusionMatrix":
        """Build the matrix from a tally {(true label, predicted label): count}.

        The class set is the sorted union of the labels seen on either side,
        so a class that is never predicted still gets a column and vice versa.
        Classes are named by `str(label)`.  Labels of different types with the
        same name, such as 1 and "1", are rejected rather than merged; labels
        that compare equal, such as 1 and 1.0, are one class.
        """
        distinct = {t for t, _ in pair_counts} | {p for _, p in pair_counts}
        # one str() per distinct label, not per pair
        names: dict[str, object] = {}
        for label in distinct:
            first = names.setdefault(str(label), label)
            if type(first) is not type(label):
                raise ValueError(
                    f"labels {first!r} and {label!r} both read {str(label)!r}"
                )
        labels = tuple(sorted(names))
        position = {name: i for i, name in enumerate(labels)}
        index = {label: position[str(label)] for label in distinct}
        n = len(labels)
        cells = [index[t] * n + index[p] for t, p in pair_counts]
        weights = list(pair_counts.values())
        refused = set(filter(_no_number, set(map(type, weights))))
        if refused:
            pair = next(pair for pair, c in pair_counts.items() if type(c) in refused)
            raise ValueError(f"count of {pair!r} is {pair_counts[pair]!r}, not a number")
        counts = np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)
        return cls.from_counts(counts, labels)


@lru_cache(maxsize=64)
def _default_labels(n: int) -> tuple[str, ...]:
    # built once per class count, and distinct by construction
    return tuple(f"class_{i}" for i in range(n))


# cell types that numpy would read as a number, or fail on under another name
_NON_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating, type(None))


def _no_number(kind: type) -> bool:
    # a type numpy would misread as a number, or one with neither __float__ nor __index__
    number = hasattr(kind, "__float__") or hasattr(kind, "__index__")
    return not number or issubclass(kind, _NON_NUMBERS)


def _check_cells(grid: object) -> object:
    # the grid as a list of rows, any row that is an iterator read into a list
    # once, so numpy gets the cells this scan saw.  Names the first cell that
    # is no number (`_no_number`).  A grid or row that is not iterable is left
    # to the shape checks, and one whose items are no rows or cells (the
    # characters of a string, the keys of a mapping) is named
    if isinstance(grid, (str, bytes, Mapping)):
        raise ValueError(f"grid is a {type(grid).__name__}, not a sequence of rows")
    if not isinstance(grid, Iterable):
        return grid
    rows = list(grid)
    for i, row in enumerate(rows):
        if isinstance(row, (str, bytes, Mapping)):
            raise ValueError(
                f"row {i} is a {type(row).__name__}, not a sequence of numbers"
            )
        if isinstance(row, Iterator):
            row = rows[i] = list(row)
        kinds = set(map(type, row)) if isinstance(row, Iterable) else ()
        refused = set(filter(_no_number, kinds))
        if refused:
            # only a refused type takes a second pass, to name its cell
            j, cell = next((j, c) for j, c in enumerate(row) if type(c) in refused)
            raise ValueError(f"non-number cell at row {i}, column {j}: {cell!r}")
    return rows


def _overflow_message(counts: np.ndarray) -> str:
    # finite cells whose sum overflows: name the first row, else the first
    # column, whose own sum does
    with np.errstate(over="ignore"):
        for axis, what in ((1, "row"), (0, "column")):
            over = ~np.isfinite(counts.sum(axis=axis))
            if over.any():
                return f"sum of {what} {int(over.argmax())} overflows"
    return "sum of all cells overflows"


def smooth(cm: ConfusionMatrix, alpha: float) -> ConfusionMatrix:
    """Add the pseudo-count alpha to every cell; alpha = 0 returns cm unchanged.

    alpha must be finite, non-negative and a number by the cell rule of
    `from_counts`, which refuses a bool or a str and reads a Fraction as float."""
    if _no_number(type(alpha)):
        raise ValueError(f"alpha is {alpha!r}, not a number")
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        return cm
    return ConfusionMatrix.from_counts(cm.counts + alpha, cm.labels)


def _rates(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """counts / sums, broadcast, with 0 wherever the sum is 0."""
    return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def normalized_matrix(cm: ConfusionMatrix) -> np.ndarray:
    """The paper's N: the read-only n x n matrix of geometric conditional rates.

    Two whole-array divisions, C / col_sums[None, :] and C / row_sums[:, None]
    (0 where the sum is 0), averaged in place, give cell (i, j) as exactly
    `geometric_mean((C[i, j] / col_sums[j], C[i, j] / row_sums[i]))`.
    Entries lie in [0, 1].  The construction is symmetric in the two rates,
    so transposing the counts transposes the result exactly, and scaling
    every count by a common positive factor leaves it unchanged.
    """
    by_col = _rates(cm.counts, cm.col_sums[None, :])
    by_row = _rates(cm.counts, cm.row_sums[:, None])
    values = _pair_average(GEOMETRIC, by_col, by_row)
    values.setflags(write=False)
    return values


def _wrap(labels: tuple[str, ...], counts: np.ndarray) -> ConfusionMatrix:
    # internal constructor for a transform's new array of validated counts
    counts.setflags(write=False)
    return ConfusionMatrix(labels, counts)


def transpose(cm: ConfusionMatrix) -> ConfusionMatrix:
    """Swap the roles of true and predicted class."""
    return _wrap(cm.labels, cm.counts.T.copy())


def relabel(cm: ConfusionMatrix, permutation: Sequence[int]) -> ConfusionMatrix:
    """Reorder classes: new position k holds old class permutation[k].

    Rows and columns move together, so the table still describes the same
    classifier; only the presentation order changes.  Entries are Python or
    numpy integers; a bool or a float is refused.
    """
    perm = [_position(k, x) for k, x in enumerate(permutation)]
    if sorted(perm) != list(range(cm.n)):
        raise ValueError(
            f"permutation must be a bijection on 0..{cm.n - 1}, got {perm}"
        )
    new_labels = tuple(cm.labels[k] for k in perm)
    new_counts = cm.counts[np.ix_(perm, perm)]
    return _wrap(new_labels, new_counts)


def _position(k: int, entry: object) -> int:
    # an integer, never a bool or a float that int() would truncate
    if not isinstance(entry, bool):
        try:
            return operator.index(entry)
        except TypeError:
            pass
    raise ValueError(f"permutation[{k}] is {entry!r}, not an integer")
