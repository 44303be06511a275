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

from .means import _check_list, _column_means, _no_list, _no_number, _past_doubles, _quiet

__all__ = [
    "ConfusionMatrix",
    "smooth",
    "normalized_matrix",
    "transpose",
    "relabel",
]

# a table keeps the rows and columns of its nonzero cells where it has at most this many a
# row, and hands them to the sparse kernels of `generalized_mcc` and `cramers_phi` from this
# many classes on, where each kernel, sharing the one scan, was measured to pay
_SPARSE_CELLS_PER_ROW = 8
_SPARSE_MIN_N = 256


class _CellError(ValueError):
    # a grid's row or cell that is no list of numbers or no number, with its place,
    # (row,) or (row, column), and value, for a front end to name in its own notation
    def __init__(self, message: str, place: tuple[int, ...], value: object) -> None:
        super().__init__(message)
        self.place, self.value = place, value


class _CellValueError(ValueError):
    # a grid's cell that is a number refused for its value: `form` is the message
    # with "{}" for the place, which reads "row i, column j" here and is named in
    # a front end's own notation from `place`, (i, j)
    def __init__(self, form: str, i: int, j: int) -> None:
        super().__init__(form.format(f"row {i}, column {j}"))
        self.form, self.place = form, (i, j)


def _read_only(array: np.ndarray) -> np.ndarray:
    # the one way an array a table holds or hands out is marked: no caller can
    # change a count, a marginal or a cache that later scores read
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ConfusionMatrix:
    """A square table of class-vs-class counts with its label order.

    Attributes:
        labels: class names, one per row/column, all distinct.
        counts: (n, n) float64 array, counts[i][j] = number of samples of
            true class i that were predicted as class j.  Read-only.
        row_sums, col_sums: the per-class totals of the true and of the
            predicted class, summed once per table.  Read-only.
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
        return _read_only(self.counts.sum(axis=1))

    @cached_property
    def col_sums(self) -> np.ndarray:
        return _read_only(self.counts.sum(axis=0))

    @cached_property
    def total(self) -> float:
        return float(self.counts.sum())

    @cached_property
    def _diagonal_rates(self) -> tuple[np.ndarray, np.ndarray]:
        # per-class precision C[i,i] / col_sum(i) and recall C[i,i] / row_sum(i),
        # once per table for every score that reads them, so read-only
        diag = self.counts.diagonal()
        return _read_only(_rates(diag, self.col_sums)), _read_only(_rates(diag, self.row_sums))

    @cached_property
    def _per_class_f1(self) -> np.ndarray:
        # each class's F1, the harmonic mean of its precision and recall, once per
        # table for `generalized_f1` under every outer, so read-only
        return _read_only(_column_means(-1.0, *self._diagonal_rates))

    @cached_property
    def _pair_rates(self) -> np.ndarray:
        """The (4, n, n) rates of every ordered class pair (i, j), class i positive.

        With TP = C[i][i], FN = C[i][j] and FP = C[j][i] (0 on the diagonal, no pair):
        precision TP/(TP+FP), sensitivity TP/(TP+FN), FP/(TP+FP) and FN/(TP+FN), 0 over
        a zero sum.  Read transposed: npv, specificity, FN/(TN+FN) and FP/(TN+FP).  32 n^2
        bytes (32 MB at n = 1000), once per table for every one-vs-one and two-class
        score, so read-only, and dropped with the table."""
        counts, n = self.counts, self.n
        table = np.empty((2, 2, n, n))
        table[0] = counts.diagonal()[:, None]  # TP, over TP + FP and over TP + FN
        table[1, 0], table[1, 1] = counts.T, counts  # FP, then FN
        table[1].reshape(2, -1)[:, :: n + 1] = 0  # the diagonal
        sums = table[0] + table[1]
        np.divide(table, sums, out=table, where=sums > 0)  # a zero sum's terms are 0
        return _read_only(table).reshape(4, n, n)

    @property
    def _sparse_cells(self) -> tuple[np.ndarray, np.ndarray] | None:
        # `_nonzero_cells` from `_SPARSE_MIN_N` classes on, else None: the one gate of both
        # sparse kernels.  Uncached, so no smaller table takes the scan, nor the lock that
        # a cached property's first read takes before Python 3.12
        return self._nonzero_cells if self.n >= _SPARSE_MIN_N else None

    @cached_property
    def _nonzero_cells(self) -> tuple[np.ndarray, np.ndarray] | None:
        # the read-only (rows, cols) of the nonzero cells, in row-major order, of a table
        # with at most `_SPARSE_CELLS_PER_ROW` of them a row, else None: one scan and one
        # split per table for both sparse kernels, read through `_sparse_cells`.  A table
        # dense in its first rows, such as a smoothed one, leaves before the full scan
        bound = _SPARSE_CELLS_PER_ROW * self.n
        if np.count_nonzero(self.counts[: _SPARSE_CELLS_PER_ROW + 1]) > bound:
            return None
        nonzero = self.counts != 0
        if np.count_nonzero(nonzero) > bound:
            return None
        rows, cols = np.divmod(np.flatnonzero(nonzero), self.n)
        return _read_only(rows), _read_only(cols)

    @cached_property
    def _upper(self) -> np.ndarray:
        # the mask of the pairs i < j in the planes of `_pair_rates`, n * n bytes
        classes = np.arange(self.n)
        return _read_only(classes[:, None] < classes)

    @classmethod
    def from_counts(
        cls,
        grid: Sequence[Sequence[float]] | np.ndarray,
        labels: Sequence[str] | None = None,
    ) -> "ConfusionMatrix":
        """Validate a square grid of non-negative cell values.

        Labels default to class_0 ... class_{n-1}; labels that are a str,
        byte buffer, mapping or no iterable at all are refused.  Cells may be
        fractional (smoothing produces such tables); they must be finite,
        non-negative, and not all zero, and their sum must be finite too.  A
        cell that is no number (a str, bytes, bool, complex, None, list or
        dict) is refused, and so is a grid or a row that is a str, byte buffer,
        mapping, 0-d array or, for a row, no iterable at all.  A grid or row
        that is an iterator is read once, as its list would be.  A signalling
        NaN is a NaN cell, and a -0.0 cell is stored as 0.0.
        """
        # a float or int array is numbers by its dtype alone
        if not (isinstance(grid, np.ndarray) and grid.dtype.kind in "fiu"):
            grid = _check_cells(grid)
        try:
            counts = np.asarray(grid, dtype=float)
        except OverflowError:
            i, j = next(
                (i, j) for i, row in enumerate(grid) for j, c in enumerate(row) if _past_doubles(c)
            )
            raise _CellValueError("cell at {} is past the double range", i, j) from None
        except (ValueError, TypeError):
            # every cell is a number by now, so the rows are ragged
            raise ValueError("non-square grid: rows have unequal lengths") from None
        # the one copy (numpy's, of a list or an int array), in which -0.0 + 0.0 is 0.0
        copied = counts is not grid and counts.base is None  # not the grid, nor a view of it
        counts = np.add(counts, 0.0, out=counts) if copied else counts + 0.0
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"non-square grid: shape {counts.shape}")
        side = counts.shape[0]
        if side < 2:
            raise ValueError(f"n < 2: need at least two classes, got {side}")
        if labels is None:
            labels = _default_labels(side)
        else:
            _check_list(labels, "labels must be a list of names")
            labels = tuple(str(lab) for lab in labels)
            if len(labels) != side:
                raise ValueError(
                    f"label count {len(labels)} does not match grid side {side}"
                )
            if len(set(labels)) != side:
                raise ValueError("duplicate labels")
        # NaN fails the min test, +inf and finite cells whose sum overflows
        # the sum test (-inf + inf is NaN); the scans below tell these apart
        with np.errstate(over="ignore", invalid="ignore"):
            total = counts.sum()
        if not (counts.min() >= 0 and np.isfinite(total)):
            bad = np.argwhere(~np.isfinite(counts)).tolist()
            if bad:
                # a Decimal past the largest double reads as inf; it is named as an int is
                past = [(i, j) for i, j in bad if _past_doubles(grid[i][j])]
                if past:
                    raise _CellValueError("cell at {} is past the double range", *past[0])
                raise _CellValueError("non-finite cell at {}", *bad[0])
            neg = counts < 0
            if neg.any():
                i, j = map(int, np.argwhere(neg)[0])
                raise _CellValueError(f"negative cell at {{}}: {counts[i, j]}", i, j)
            raise ValueError(_overflow_message(counts))
        if total == 0:
            raise ValueError("all cells are zero")
        cm = cls(labels, _read_only(counts))
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

        Each argument is refused by name where `from_counts` refuses its
        `labels`: a str, byte buffer, mapping or non-iterable, and so is the
        first label that cannot be counted, such as a list, by its argument and
        index.  The pairs are counted with `Counter` and the counts go through
        `from_pair_counts`, whose label rules apply.
        """
        _check_list(true_labels, "true_labels must be a list of labels")
        _check_list(predicted_labels, "predicted_labels must be a list of labels")
        truths = list(true_labels)
        preds = list(predicted_labels)
        if len(truths) != len(preds):
            raise ValueError(
                f"length mismatch: {len(truths)} true labels "
                f"vs {len(preds)} predicted"
            )
        if not truths:
            raise ValueError("empty label sequences")
        try:
            tally = Counter(zip(truths, preds))
        except TypeError:
            _check_hashable(truths, preds)
            raise
        return cls.from_pair_counts(tally)

    @classmethod
    def from_pair_counts(
        cls, pair_counts: Mapping[tuple[object, object], float]
    ) -> "ConfusionMatrix":
        """Build the matrix from a tally {(true label, predicted label): count}.

        The class set is the sorted union of the labels seen on either side,
        so a class that is never predicted still gets a column and vice versa.
        Classes are named by `str(label)`.  Labels of different types with the
        same name, such as 1 and "1", are rejected rather than merged; labels
        that compare equal, such as 1 and 1.0, are one class.  A key that is
        not a tuple of two items, such as the str "ab", is refused by name, and
        so is an argument that is no mapping, such as a list of (pair, count).
        The counts follow `from_counts`' cell rule, read as one row of cells: a
        count that is no number is refused by its pair, and a signalling NaN is
        a NaN count.
        """
        if not isinstance(pair_counts, Mapping):
            kind = type(pair_counts).__name__
            raise ValueError(
                "pair_counts must be a mapping of (true, predicted) pairs to counts, "
                f"not the {kind} {pair_counts!r}"
            )
        for key in pair_counts:  # distinct by construction
            if not (isinstance(key, tuple) and len(key) == 2):
                kind = type(key).__name__
                raise ValueError(f"key must be a (true, predicted) pair, not the {kind} {key!r}")
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
        try:  # the counts as one row of cells, by `from_counts`' cell rule
            (weights,) = _check_cells([list(pair_counts.values())])
        except _CellError as error:  # named by the pair of its column
            pair = list(pair_counts)[error.place[1]]
            raise ValueError(f"count of {pair!r} is {error.value!r}, not a number") from None
        try:
            counts = np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)
            return cls.from_counts(counts, labels)
        except (OverflowError, ValueError):
            # the tally refuses an int or Fraction past the largest double, and the
            # table the inf a Decimal there reads as; either is named by its pair
            pair = next((pair for pair, c in zip(pair_counts, weights) if _past_doubles(c)), None)
            if pair is None:
                raise
            raise ValueError(f"count of {pair!r} is past the double range") from None


@lru_cache(maxsize=64)
def _default_labels(n: int) -> tuple[str, ...]:
    # built once per class count, and distinct by construction
    return tuple(f"class_{i}" for i in range(n))


def _check_hashable(truths: list, preds: list) -> None:
    # the first label the tally cannot count, in its order, named by argument and index
    for k, pair in enumerate(zip(truths, preds)):
        for name, label in zip(("true_labels", "predicted_labels"), pair):
            try:
                hash(label)
            except TypeError:
                refused = f"{name}[{k}] is the {type(label).__name__} {label!r}"
                raise ValueError(f"{refused}, not a hashable label") from None


def _check_cells(grid: object) -> object:
    # the grid as a list of rows, any row that is an iterator read into a list
    # once, so numpy gets the cells this scan saw.  Names the first cell that
    # is no number (`_no_number`), and reads a signalling NaN as NaN (`_quiet`),
    # since numpy refuses one as ragged.  A grid that is not iterable is refused
    # as the 0-d array numpy would read it as, without numpy's cast of it; a grid
    # or row that is no list (`_no_list`) is named, so every row numpy reads is
    # a list of numbers
    if not isinstance(grid, Iterable):
        raise ValueError("non-square grid: shape ()")
    if _no_list(grid):
        raise ValueError(f"grid is a {type(grid).__name__}, not a sequence of rows")
    rows = list(grid)
    for i, row in enumerate(rows):
        if _no_list(row):
            raise _CellError(
                f"row {i} is a {type(row).__name__}, not a sequence of numbers", (i,), row
            )
        if isinstance(row, Iterator):
            row = rows[i] = list(row)
        kinds = set(map(type, row))
        refused = set(filter(_no_number, kinds))
        if refused:
            # only a refused type takes a second pass, to name its cell
            j, cell = next((j, c) for j, c in enumerate(row) if type(c) in refused)
            raise _CellError(f"non-number cell at row {i}, column {j}: {cell!r}", (i, j), cell)
        if any(hasattr(kind, "is_snan") for kind in kinds):
            rows[i] = list(map(_quiet, row))
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

    alpha must be finite, non-negative and a number by the cells' rule
    (`means._no_number`), which refuses a bool or a str and reads a Fraction."""
    if _no_number(type(alpha)):
        raise ValueError(f"alpha is {alpha!r}, not a number")
    alpha = _quiet(alpha)
    alpha = np.inf if _past_doubles(alpha) else float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        return cm
    return ConfusionMatrix.from_counts(cm.counts + alpha, cm.labels)


def _rates(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """counts / sums, broadcast, with 0 wherever the sum is 0."""
    return np.divide(counts, sums, out=np.zeros(counts.shape), where=sums > 0)


def normalized_matrix(cm: ConfusionMatrix) -> np.ndarray:
    """The paper's N: the read-only n x n matrix of geometric conditional rates.

    Two whole-array divisions, C / col_sums[None, :] and C / row_sums[:, None]
    (0 where the sum is 0), averaged by `means._column_means`, give cell (i, j)
    as exactly their geometric mean, `power_mean((C[i, j] / col_sums[j],
    C[i, j] / row_sums[i]), 0.0)`.  Entries lie in [0, 1].  The construction
    is symmetric in the two rates, so transposing the counts transposes the
    result exactly, and scaling every count by a common positive factor
    leaves it unchanged.
    """
    by_col = _rates(cm.counts, cm.col_sums[None, :])
    by_row = _rates(cm.counts, cm.row_sums[:, None])
    return _read_only(_column_means(0.0, by_col, by_row))


def transpose(cm: ConfusionMatrix) -> ConfusionMatrix:
    """Swap the roles of true and predicted class."""
    return ConfusionMatrix(cm.labels, _read_only(cm.counts.T.copy()))


def relabel(cm: ConfusionMatrix, permutation: Sequence[int]) -> ConfusionMatrix:
    """Reorder classes: new position k holds old class permutation[k].

    Rows and columns move together, so the table still describes the same
    classifier; only the presentation order changes.  Entries are Python or
    numpy integers; a bool or a float is refused, and so is a permutation
    that `from_counts` would refuse as labels.
    """
    _check_list(permutation, "permutation must be a sequence of integers")
    entries = list(permutation)
    perm = list(map(_integer, entries))
    if None in perm:
        k = perm.index(None)
        raise ValueError(f"permutation[{k}] is {entries[k]!r}, not an integer")
    if sorted(perm) != list(range(cm.n)):
        raise ValueError(
            f"permutation must be a bijection on 0..{cm.n - 1}, got {perm}"
        )
    new_labels = tuple(cm.labels[k] for k in perm)
    return ConfusionMatrix(new_labels, _read_only(cm.counts[np.ix_(perm, perm)]))


def _integer(entry: object) -> int | None:
    # an integer, never a bool or a float that int() would truncate; else None
    if not isinstance(entry, bool):
        try:
            return operator.index(entry)
        except TypeError:
            pass
    return None
