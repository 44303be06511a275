"""Confusion-matrix construction, validation, and structural transforms.

Rows index the true class, columns the predicted class, in the order given
by `labels`.  Counts are stored as a read-only float64 array so smoothed
(fractional) tables and raw integer tallies share one representation.

`normalized_matrix` averages, cell by cell, the two conditional rates
P(true i | predicted j) and P(predicted j | true i), each built as one
whole-array division; with the geometric average its entries are

    N[i][j] = C[i][j] / sqrt(row_sum(i) * col_sum(j))

which is the matrix whose determinant the multiclass module turns into a
correlation-style score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .means import ARITHMETIC, GEOMETRIC, HARMONIC, AverageKind, AveragingSpec

__all__ = [
    "ConfusionMatrix",
    "NormalizedConfusionMatrix",
    "SmoothingSpec",
    "smooth",
    "row_conditional",
    "col_conditional",
    "normalized_matrix",
    "transpose",
    "relabel",
    "restrict_to_pair",
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
        and not all zero.
        """
        try:
            counts = np.array(grid, dtype=float)  # the one copy
        except (ValueError, TypeError):
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
        # NaN fails the min test, +inf the sum test; finite cells whose sum
        # overflows pass the scans below and are accepted
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


@dataclass(frozen=True)
class NormalizedConfusionMatrix:
    """Per-cell average of the two conditional rates of a ConfusionMatrix."""

    values: np.ndarray
    averaging: AveragingSpec

    @property
    def n(self) -> int:
        return self.values.shape[0]


def smooth(cm: ConfusionMatrix, spec: SmoothingSpec) -> ConfusionMatrix:
    """Add spec.alpha to every cell; alpha = 0 returns cm unchanged."""
    if spec.alpha == 0:
        return cm
    return ConfusionMatrix.from_counts(cm.counts + spec.alpha, cm.labels)


def _check_index(cm: ConfusionMatrix, idx: int) -> None:
    if not 0 <= idx < cm.n:
        raise IndexError(f"class index {idx} out of range for {cm.n} classes")


def _rates(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """counts / sums, broadcast, with 0 wherever the sum is 0."""
    return np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)


def row_conditional(cm: ConfusionMatrix, i: int, j: int) -> float:
    """P(predicted j | true i); 0.0 when class i has no samples."""
    _check_index(cm, i)
    _check_index(cm, j)
    return float(_rates(cm.counts[i, j], cm.row_sums[i]))


def col_conditional(cm: ConfusionMatrix, i: int, j: int) -> float:
    """P(true i | predicted j); 0.0 when class j is never predicted."""
    _check_index(cm, i)
    _check_index(cm, j)
    return float(_rates(cm.counts[i, j], cm.col_sums[j]))


def _pair_average(spec: AveragingSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`apply_average(spec, (a, b))` element-wise, in place into `a`; `b` is clobbered.

    Bit for bit the scalar two-element mean (`float_power`, like `**`, is C's `pow`).
    """
    # the exact collapses power_mean makes at p = -1, 0, 1
    kind = {-1.0: HARMONIC, 0.0: GEOMETRIC, 1.0: ARITHMETIC}.get(spec.p, spec).kind
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is AverageKind.GEOMETRIC:
            a *= b
            np.sqrt(a, out=a)
        elif kind is AverageKind.ARITHMETIC:
            a += b
            a /= 2
        elif kind is AverageKind.HARMONIC:  # a zero rate gives 2/inf = 0, as in the scalar
            np.divide(1.0, a, out=a)
            a += np.divide(1.0, b, out=b)
            np.divide(2.0, a, out=a)
        elif kind in (AverageKind.MIN, AverageKind.MAX):
            (np.minimum if kind is AverageKind.MIN else np.maximum)(a, b, out=a)
        else:
            anchor = np.maximum(a, b) if spec.p > 0 else np.minimum(a, b)
            a /= anchor
            b /= anchor
            np.float_power(a, spec.p, out=a)
            np.float_power(b, spec.p, out=b)
            a += b
            a /= 2
            np.float_power(a, 1.0 / spec.p, out=a)
            a *= anchor
            a[anchor == 0] = 0.0  # the scalar mean's early return
    return a


def normalized_matrix(
    cm: ConfusionMatrix, averaging: AveragingSpec = GEOMETRIC
) -> NormalizedConfusionMatrix:
    """Average the column- and row-conditional rate in every cell.

    Two whole-array divisions, C / col_sums[None, :] and C / row_sums[:, None]
    (0 where the sum is 0), averaged in place, give cell (i, j) as exactly
    `apply_average(averaging, (col_conditional(cm, i, j), row_conditional(cm, i, j)))`.
    Entries lie in [0, 1].  The construction is symmetric in the two rates,
    so transposing the counts transposes the result exactly, and scaling
    every count by a common positive factor leaves it unchanged.
    """
    by_col = _rates(cm.counts, cm.col_sums[None, :])
    by_row = _rates(cm.counts, cm.row_sums[:, None])
    values = _pair_average(averaging, by_col, by_row)
    values.setflags(write=False)
    return NormalizedConfusionMatrix(values, averaging)


def _wrap(labels: tuple[str, ...], counts: np.ndarray) -> ConfusionMatrix:
    # internal constructor for transforms of an already-validated matrix
    counts = np.ascontiguousarray(counts)
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


def restrict_to_pair(cm: ConfusionMatrix, i: int, j: int) -> ConfusionMatrix:
    """The 2x2 sub-table for classes i and j only, in that order.

    Row/column order in the result is (i, j); samples involving any other
    class are dropped.  The restriction may be all zero when neither class
    occurs, in which case every rate on it is 0 by the usual conventions.
    """
    _check_index(cm, i)
    _check_index(cm, j)
    if i == j:
        raise ValueError("pair restriction needs two distinct classes")
    idx = [i, j]
    sub = cm.counts[np.ix_(idx, idx)]
    return _wrap((cm.labels[i], cm.labels[j]), sub)
