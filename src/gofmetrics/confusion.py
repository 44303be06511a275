"""The count table, its validation and transforms, and its normalization N.

Rows index the true class, columns the predicted class, in the order given
by `labels`.  Counts are stored as a read-only float64 array so smoothed
(fractional) tables and raw integer tallies share one representation.

`normalized_matrix` returns N as a read-only array: cell by cell, the
average of the two conditional rates P(true i | predicted j) and
P(predicted j | true i), each one whole-array division (0 over a zero
sum); with the geometric average its entries are

    N[i][j] = C[i][j] / sqrt(row_sum(i) * col_sum(j))

which is the matrix whose determinant the multiclass module turns into a
correlation-style score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .means import GEOMETRIC, AveragingSpec, _pair_average

__all__ = [
    "ConfusionMatrix",
    "SmoothingSpec",
    "smooth",
    "normalized_matrix",
    "transpose",
    "relabel",
]


@dataclass(frozen=True)
class SmoothingSpec:
    """Additive pseudo-count: alpha is added to every cell."""

    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")


@dataclass(frozen=True)
class ConfusionMatrix:
    """A square table of class-vs-class counts with its label order.

    Attributes:
        labels: class names, one per row/column, all distinct.
        counts: (n, n) float64 array, counts[i][j] = number of samples of
            true class i that were predicted as class j.  Read-only.
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

    @property
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
        no number (a str, bytes, bool, complex, None or dict) is refused.
        """
        # a float or int array is numbers by its dtype alone
        if not (isinstance(grid, np.ndarray) and grid.dtype.kind in "fiu"):
            _check_cells(grid, lambda kind: issubclass(kind, _NON_NUMBERS))
        try:
            counts = np.array(grid, dtype=float)  # the one copy
        except (ValueError, TypeError):
            # a cell float() cannot read, such as a dict; else ragged rows
            _check_cells(grid, lambda kind: not hasattr(kind, "__float__"))
            raise ValueError("non-square grid: rows have unequal lengths") from None
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError(f"non-square grid: shape {counts.shape}")
        side = counts.shape[0]
        if side < 2:
            raise ValueError(f"n < 2: need at least two classes, got {side}")
        if labels is None:
            labels = tuple(f"class_{i}" for i in range(side))
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
        return cls(labels, counts)

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
        counts = np.bincount(
            cells, weights=list(pair_counts.values()), minlength=n * n
        ).reshape(n, n)
        return cls.from_counts(counts, labels)


# cell types that numpy would read as a number, or fail on under another name
_NON_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating, type(None))


def _check_cells(grid: object, refused: Callable[[type], bool]) -> None:
    # name the first cell of a type `refused` picks; a grid or row that is no
    # sequence is left to the shape checks
    for i, row in enumerate(grid if isinstance(grid, Iterable) else ()):
        kinds = set(map(type, row)) if isinstance(row, Iterable) else ()
        if any(map(refused, kinds)):
            # only a refused type takes a second pass, to name its cell
            j, cell = next((j, c) for j, c in enumerate(row) if refused(type(c)))
            raise ValueError(f"non-number cell at row {i}, column {j}: {cell!r}")


def _overflow_message(counts: np.ndarray) -> str:
    # finite cells whose sum overflows: name the first row, else the first
    # column, whose own sum does
    with np.errstate(over="ignore"):
        for axis, what in ((1, "row"), (0, "column")):
            over = ~np.isfinite(counts.sum(axis=axis))
            if over.any():
                return f"sum of {what} {int(over.argmax())} overflows"
    return "sum of all cells overflows"


def smooth(cm: ConfusionMatrix, spec: SmoothingSpec) -> ConfusionMatrix:
    """Add spec.alpha to every cell; alpha = 0 returns cm unchanged."""
    if spec.alpha == 0:
        return cm
    return ConfusionMatrix.from_counts(cm.counts + spec.alpha, cm.labels)


def _rates(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """counts / sums, broadcast, with 0 wherever the sum is 0."""
    return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def normalized_matrix(
    cm: ConfusionMatrix, averaging: AveragingSpec = GEOMETRIC
) -> np.ndarray:
    """The read-only n x n matrix of averaged conditional rates.

    Two whole-array divisions, C / col_sums[None, :] and C / row_sums[:, None]
    (0 where the sum is 0), averaged in place, give cell (i, j) as exactly
    `apply_average(averaging, (C[i, j] / col_sums[j], C[i, j] / row_sums[i]))`.
    Entries lie in [0, 1].  The construction is symmetric in the two rates,
    so transposing the counts transposes the result exactly, and scaling
    every count by a common positive factor leaves it unchanged.
    """
    by_col = _rates(cm.counts, cm.col_sums[None, :])
    by_row = _rates(cm.counts, cm.row_sums[:, None])
    values = _pair_average(averaging, by_col, by_row)
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
    classifier; only the presentation order changes.
    """
    perm = [int(x) for x in permutation]
    if sorted(perm) != list(range(cm.n)):
        raise ValueError(
            f"permutation must be a bijection on 0..{cm.n - 1}, got {perm}"
        )
    new_labels = tuple(cm.labels[k] for k in perm)
    new_counts = cm.counts[np.ix_(perm, perm)]
    return _wrap(new_labels, new_counts)

