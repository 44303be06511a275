"""Two-class rates and scores over a 2x2 confusion matrix.

A `BinaryView` fixes which of the two classes counts as positive; the four
cells are then

    TP = counts[pos][pos]   FN = counts[pos][neg]
    FP = counts[neg][pos]   TN = counts[neg][neg]

All rate functions use the 0-on-degenerate convention: when a denominator
is zero the rate is 0.0 rather than an error, so the scores stay total on
every non-empty table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .confusion import ConfusionMatrix
from .means import _check_exponent, harmonic_mean, power_mean

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


@dataclass(frozen=True)
class BinaryView:
    """A 2x2 confusion matrix with one class marked positive."""

    cm: ConfusionMatrix
    positive_index: int = 0

    def __post_init__(self) -> None:
        if self.cm.n != 2:
            raise ValueError(f"binary view needs a 2x2 matrix, got {self.cm.n}x{self.cm.n}")
        if self.positive_index not in (0, 1):
            raise ValueError("positive_index must be 0 or 1")

    @property
    def _neg(self) -> int:
        return 1 - self.positive_index

    @property
    def tp(self) -> float:
        return float(self.cm.counts[self.positive_index, self.positive_index])

    @property
    def fn(self) -> float:
        return float(self.cm.counts[self.positive_index, self._neg])

    @property
    def fp(self) -> float:
        return float(self.cm.counts[self._neg, self.positive_index])

    @property
    def tn(self) -> float:
        return float(self.cm.counts[self._neg, self._neg])

    def swapped(self) -> "BinaryView":
        """The same table with the other class as positive."""
        return BinaryView(self.cm, self._neg)


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
    return harmonic_mean((precision(view), sensitivity(view)))


def f1_zero_binary(view: BinaryView) -> float:
    """Harmonic mean of specificity and npv: the F1 of the negative class."""
    return harmonic_mean((specificity(view), npv(view)))


def fowlkes_mallows_binary(view: BinaryView) -> float:
    """Geometric mean of precision and sensitivity."""
    p = precision(view)
    s = sensitivity(view)
    return math.sqrt(p * s)


def mcc_binary(view: BinaryView) -> float:
    """Matthews correlation coefficient.

        (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FN)(TN+FP))

    Equals the Pearson correlation of the two 0/1 indicator vectors.
    Returns 0.0 when any marginal is zero (a constant indicator has no
    correlation).  Range [-1, 1].
    """
    tp, fn, fp, tn = view.tp, view.fn, view.fp, view.tn
    # an exact power-of-two rescale to a largest count in [0.5, 1) keeps the
    # fourfold product in range at any scale and leaves every rounding as is
    shift = -math.frexp(max(tp, fn, fp, tn))[1]
    stp, sfn, sfp, stn = (
        math.ldexp(tp, shift), math.ldexp(fn, shift), math.ldexp(fp, shift), math.ldexp(tn, shift)
    )
    denom = (stp + sfp) * (stp + sfn) * (stn + sfn) * (stn + sfp)
    if denom != 0:
        return (stp * stn - sfp * sfn) / math.sqrt(denom)
    if 0 in (tp + fp, tp + fn, tn + fn, tn + fp):
        return 0.0
    # counts of so different size that the product of the marginals
    # underflows: the same score is sqrt(PPV TPR TNR NPV) - sqrt(FDR FNR FPR FOR)
    # on the unscaled counts, whose sums are at most the finite total
    agree = precision(view) * sensitivity(view) * specificity(view) * npv(view)
    disagree = _rate(fp, tp + fp) * _rate(fn, tp + fn) * _rate(fp, tn + fp) * _rate(fn, tn + fn)
    return math.sqrt(agree) - math.sqrt(disagree)


def lp_four_rate_score(view: BinaryView, p: float) -> float:
    """Power mean of (sensitivity, specificity, precision, npv).

    p must be <= 1 (-inf allowed), as `means._check_exponent` explains.
    """
    _check_exponent(p)
    rates = (sensitivity(view), specificity(view), precision(view), npv(view))
    return power_mean(rates, p)
