"""Two-class rates and scores over a 2x2 confusion matrix.

A `BinaryView` fixes which of the two classes counts as positive and holds
its four cells as Python floats:

    TP = counts[pos][pos]   FN = counts[pos][neg]
    FP = counts[neg][pos]   TN = counts[neg][neg]

Every score is an array function of the eight rates of m such tables at
once (`_rates`), which one-vs-one applies to all class pairs of a table in
one pass; the public scores of one view are those functions at m = 1.  The
other class's rates are the same rows reversed, `rates[:, ::-1]`.  A rate
over a zero sum is 0.0 rather than an error, so the scores stay total on
every non-empty table, and each mean of rates is `means._column_means`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

import numpy as np

from .confusion import ConfusionMatrix, _integer, _rates as _divide
from .means import _check_exponent, _column_means

__all__ = [
    "BinaryView",
    "precision",
    "sensitivity",
    "specificity",
    "npv",
    "f1_binary",
    "f1_zero_binary",
    "fowlkes_mallows_binary",
    "mcc_binary",
    "lp_four_rate_score",
]


class BinaryView:
    """A 2x2 confusion matrix with one class marked positive, as four Python floats."""

    __slots__ = ("tp", "fn", "fp", "tn")

    def __init__(self, cm: ConfusionMatrix, positive_index: int = 0) -> None:
        if cm.n != 2:
            raise ValueError(f"binary view needs a 2x2 matrix, got {cm.n}x{cm.n}")
        # `relabel`'s index rule: True and 1.0 compare equal to 1 but are no index
        if _integer(positive_index) not in (0, 1):
            raise ValueError("positive_index must be 0 or 1")
        (a, b), (c, d) = cm.counts.tolist()
        self.tp, self.fn, self.fp, self.tn = ((a, b, c, d), (d, c, b, a))[positive_index]

    def swapped(self) -> "BinaryView":
        """The same table with the other class as positive."""
        # type(self), not the module name, which a tracer may rebind to a wrapper
        view = object.__new__(type(self))
        view.tp, view.fn, view.fp, view.tn = self.tn, self.fp, self.fn, self.tp
        return view


def _rates(cells: np.ndarray) -> np.ndarray:
    """The (2, 4, m) rates of m tables whose cells are the columns of the
    (4, m) `cells`, rows TP, FN, FP, TN.

    rates[0] is precision TP/(TP+FP), sensitivity TP/(TP+FN), specificity
    TN/(TN+FP) and npv TN/(TN+FN); rates[1] holds FP, FN, FP and FN over the
    same four sums: one division, 0 over a zero sum (`confusion._rates`).
    """
    numerators = cells.take([0, 0, 3, 3, 2, 1, 2, 1], axis=0).reshape(2, 4, -1)
    return _divide(numerators, numerators[0] + numerators[1])


def _of(view: BinaryView) -> np.ndarray:
    # the rates of one view, m = 1
    return _rates(np.array([[view.tp], [view.fn], [view.fp], [view.tn]]))


def _two_term(p: float, i: int, j: int) -> Callable[[np.ndarray], np.ndarray]:
    # the array score that is the two-term mean of exponent p of rates[0, i] and rates[0, j]
    return lambda rates: _column_means(p, rates[0, i], rates[0, j])


# the two-class scores as array functions of `_rates`
_precision, _sensitivity, _specificity, _npv = (itemgetter((0, k)) for k in range(4))
_f1 = _two_term(-1.0, 0, 1)  # of precision and sensitivity
_f1_zero = _two_term(-1.0, 2, 3)  # of specificity and npv
_fowlkes_mallows = _two_term(0.0, 0, 1)


def _mcc(rates: np.ndarray) -> np.ndarray:
    halves = rates[:, :2] * rates[:, :1:-1]  # PPV NPV, TPR TNR and FDR FOR, FNR FPR
    roots = np.sqrt(halves[:, 0] * halves[:, 1])
    return roots[0] - roots[1]


def _lp_four_rate(rates: np.ndarray, p: float) -> np.ndarray:
    return _column_means(p, *(rates[0, k] for k in (1, 2, 0, 3)))


def precision(view: BinaryView) -> float:
    """TP / (TP + FP): how often a positive call is right."""
    return _precision(_of(view)).item()


def sensitivity(view: BinaryView) -> float:
    """TP / (TP + FN): how much of the positive class is recovered."""
    return _sensitivity(_of(view)).item()


def specificity(view: BinaryView) -> float:
    """TN / (TN + FP): sensitivity of the negative class."""
    return _specificity(_of(view)).item()


def npv(view: BinaryView) -> float:
    """TN / (TN + FN): precision of the negative class."""
    return _npv(_of(view)).item()


def f1_binary(view: BinaryView) -> float:
    """Harmonic mean of precision and sensitivity."""
    return _f1(_of(view)).item()


def f1_zero_binary(view: BinaryView) -> float:
    """Harmonic mean of specificity and npv: the F1 of the negative class."""
    return _f1_zero(_of(view)).item()


def fowlkes_mallows_binary(view: BinaryView) -> float:
    """Geometric mean of precision and sensitivity."""
    return _fowlkes_mallows(_of(view)).item()


def mcc_binary(view: BinaryView) -> float:
    """Matthews correlation coefficient.

        (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FN)(TN+FP))

    Equals the Pearson correlation of the two 0/1 indicator vectors.
    Returns 0.0 when any marginal is zero (a constant indicator has no
    correlation).  Range [-1, 1].

    Computed from rates in [0, 1] alone, as sqrt((PPV NPV)(TPR TNR)) -
    sqrt((FDR FOR)(FNR FPR)): exact under power-of-two scaling, bounded by
    construction, and the same bits with either class positive.
    """
    return _mcc(_of(view)).item()


def lp_four_rate_score(view: BinaryView, p: float) -> float:
    """Power mean of (sensitivity, specificity, precision, npv).

    p must be <= 1 (-inf allowed), as `means._check_exponent` explains.
    """
    return _lp_four_rate(_of(view), _check_exponent(p)).item()
