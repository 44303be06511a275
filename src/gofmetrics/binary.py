"""Two-class rates and scores as array functions of many 2x2 tables at once.

A two-class table with one class marked positive has four cells:

    TP = counts[pos][pos]   FN = counts[pos][neg]
    FP = counts[neg][pos]   TN = counts[neg][neg]

Every score is an array function of the eight rates of m such tables at
once (`_rates`), which one-vs-one applies to all class pairs of a table in
one pass, and `multiclass.two_class_score` to one 2x2 table at m = 1.  The
other class's rates are the same rows reversed, `rates[:, ::-1]`.  A rate
over a zero sum is 0.0 rather than an error, so the scores stay total on
every non-empty table, and each mean of rates is `means._column_means`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

import numpy as np

from .confusion import _rates as _divide
from .means import _column_means


def _rates(cells: np.ndarray) -> np.ndarray:
    """The (2, 4, m) rates of m tables whose cells are the columns of the
    (4, m) `cells`, rows TP, FN, FP, TN.

    rates[0] is precision TP/(TP+FP), sensitivity TP/(TP+FN), specificity
    TN/(TN+FP) and npv TN/(TN+FN); rates[1] holds FP, FN, FP and FN over the
    same four sums: one division, 0 over a zero sum (`confusion._rates`).
    """
    numerators = cells.take([0, 0, 3, 3, 2, 1, 2, 1], axis=0).reshape(2, 4, -1)
    return _divide(numerators, numerators[0] + numerators[1])


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
