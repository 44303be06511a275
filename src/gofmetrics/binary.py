"""Two-class rates and scores over a 2x2 confusion matrix.

A `BinaryView` fixes which of the two classes counts as positive and holds
its four cells as Python floats (one-vs-one builds one per class pair):

    TP = counts[pos][pos]   FN = counts[pos][neg]
    FP = counts[neg][pos]   TN = counts[neg][neg]

All rate functions use the 0-on-degenerate convention: when a denominator
is zero the rate is 0.0 rather than an error, so the scores stay total on
every non-empty table.
"""

from __future__ import annotations

import math
from functools import partial

from .confusion import ConfusionMatrix, _integer
from .means import _check_exponent, _power_mean

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
        return _view(self.tn, self.fp, self.fn, self.tp)


# the class is bound here once: a tracer may rebind the module name
# `BinaryView` to a wrapper function, and the builder must not look it up
_blank_view = partial(object.__new__, BinaryView)


def _view(tp: float, fn: float, fp: float, tn: float) -> BinaryView:
    """The `BinaryView` with these four cells, without a 2x2 table."""
    view = _blank_view()
    view.tp, view.fn, view.fp, view.tn = tp, fn, fp, tn
    return view


def _rate(num: float, denom: float) -> float:
    if denom == 0:
        return 0.0
    return num / denom


def precision(view: BinaryView) -> float:
    """TP / (TP + FP): how often a positive call is right."""
    return _rate(view.tp, view.tp + view.fp)


def sensitivity(view: BinaryView) -> float:
    """TP / (TP + FN): how much of the positive class is recovered."""
    return _rate(view.tp, view.tp + view.fn)


def specificity(view: BinaryView) -> float:
    """TN / (TN + FP): sensitivity of the negative class."""
    return _rate(view.tn, view.tn + view.fp)


def npv(view: BinaryView) -> float:
    """TN / (TN + FN): precision of the negative class."""
    return _rate(view.tn, view.tn + view.fn)


def f1_binary(view: BinaryView) -> float:
    """Harmonic mean of precision and sensitivity."""
    return _power_mean((precision(view), sensitivity(view)), -1.0)


def f1_zero_binary(view: BinaryView) -> float:
    """Harmonic mean of specificity and npv: the F1 of the negative class."""
    return _power_mean((specificity(view), npv(view)), -1.0)


def fowlkes_mallows_binary(view: BinaryView) -> float:
    """Geometric mean of precision and sensitivity."""
    return _power_mean((precision(view), sensitivity(view)), 0.0)


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
    tp, fn, fp, tn = view.tp, view.fn, view.fp, view.tn
    agree = (_rate(tp, tp + fp) * _rate(tn, tn + fn)) * (_rate(tp, tp + fn) * _rate(tn, tn + fp))
    disagree = (_rate(fp, tp + fp) * _rate(fn, tn + fn)) * (_rate(fn, tp + fn) * _rate(fp, tn + fp))
    return math.sqrt(agree) - math.sqrt(disagree)


def lp_four_rate_score(view: BinaryView, p: float) -> float:
    """Power mean of (sensitivity, specificity, precision, npv).

    p must be <= 1 (-inf allowed), as `means._check_exponent` explains.
    """
    rates = (sensitivity(view), specificity(view), precision(view), npv(view))
    return _power_mean(rates, _check_exponent(p))
