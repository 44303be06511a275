"""Independent reference computations used to pin expected test values.

Everything here is deliberately written along a different code path than the
package under test: determinants by cofactor expansion instead of elimination,
normalized matrices by the closed-form count/sqrt(marginal product) ratio
instead of conditional-probability averaging, correlation by expanding the
confusion matrix back into label vectors.

The exceptions are the scalar loops (`normalized_loop`, `diagonal_rates_loop`):
they keep the package's original one-cell-at-a-time construction, with its
scalar `power_mean`, as the reference its whole-array code must reproduce.
Likewise `pairs_csv_loop` keeps the original row-at-a-time label-pairs reader
as the reference for the streaming one, and `one_vs_one_loop` the original
pair-at-a-time one-vs-one loop, with a 2x2 sub-table (`restrict_to_pair`,
which the package no longer has), a four-cell `TwoByTwo` per pair and its
own copy of the scalar two-class formulas (`TWO_CLASS`), as the reference
for the whole-array one that scores every pair at once and for
`two_class_score`.
"""

import csv
import io
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from gofmetrics.cli import InputError
from gofmetrics.confusion import ConfusionMatrix
from gofmetrics.means import power_mean
from gofmetrics.multiclass import METRICS


def det_cofactor(m):
    """Determinant by recursive Laplace expansion along the first row."""
    a = [list(map(float, row)) for row in m]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0.0
    for j in range(n):
        if a[0][j] == 0.0:
            continue
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += ((-1.0) ** j) * a[0][j] * det_cofactor(minor)
    return total


def ratio_matrix(counts):
    """Closed-form normalized matrix: counts[i][j] / sqrt(row_i * col_j)."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    out = np.zeros_like(c)
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            if rows[i] > 0 and cols[j] > 0:
                out[i, j] = c[i, j] / np.sqrt(rows[i] * cols[j])
    return out


def normalized_loop(counts, averaging):
    """Normalized matrix cell by cell: the power mean of (col rate, row rate)
    at the averaging spec's exponent."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    n = c.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            by_col = float(c[i, j] / cols[j]) if cols[j] != 0 else 0.0
            by_row = float(c[i, j] / rows[i]) if rows[i] != 0 else 0.0
            out[i, j] = power_mean((by_col, by_row), averaging.exponent)
    return out


def diagonal_rates_loop(counts):
    """Per-class precision and recall lists, one class at a time."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    n = c.shape[0]
    precision = [float(c[i, i] / cols[i]) if cols[i] != 0 else 0.0 for i in range(n)]
    recall = [float(c[i, i] / rows[i]) if rows[i] != 0 else 0.0 for i in range(n)]
    return precision, recall


def pairs_csv_loop(path):
    """Label-pairs CSV as two label lists: csv.reader over the whole text.

    Same cell rules and messages as `gofmetrics.cli.parse_pairs_csv`; the
    tally is one dict lookup per row.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    truths, preds = [], []
    first_row = True
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
        cells = [c.strip() for c in row]
        if not cells or all(c == "" for c in cells):
            continue
        if len(cells) != 2:
            raise InputError(
                f"{path}: expected 2 columns at line {lineno}, got {len(cells)}"
            )
        is_header = first_row and [c.lower() for c in cells] == ["true", "predicted"]
        first_row = False
        if is_header:
            continue
        truths.append(cells[0])
        preds.append(cells[1])
    if not truths:
        raise InputError(f"{path}: empty file")
    labels = sorted(set(truths) | set(preds))
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)))
    for t, p in zip(truths, preds):
        counts[index[t], index[p]] += 1.0
    try:
        return ConfusionMatrix.from_counts(counts, labels)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def restrict_to_pair(cm, i, j):
    """The 2x2 sub-table of classes i and j, in that order.

    Built as a `ConfusionMatrix` directly, not through `from_counts`, because
    two classes that never meet give an all-zero sub-table, which
    `from_counts` refuses; every rate on it is 0 by the usual conventions.
    """
    idx = [i, j]
    sub = cm.counts[idx][:, idx]
    sub.setflags(write=False)
    return ConfusionMatrix((cm.labels[i], cm.labels[j]), sub)


class TwoByTwo(NamedTuple):
    """The four cells of a 2x2 table, one class positive, as Python floats."""

    tp: float
    fn: float
    fp: float
    tn: float

    @classmethod
    def of(cls, cm):
        """The cells of a 2x2 `ConfusionMatrix`, class 0 positive."""
        (a, b), (c, d) = cm.counts.tolist()
        return cls(a, b, c, d)

    def swapped(self):
        """The same table with the other class as positive."""
        return TwoByTwo(self.tn, self.fp, self.fn, self.tp)


def _rate(num, denom):
    return 0.0 if denom == 0 else num / denom


def _mcc_scalar(v):
    # sqrt((PPV NPV)(TPR TNR)) - sqrt((FDR FOR)(FNR FPR)), one view at a time;
    # four positive counts whose rates' product is below 2^-1022 give the product
    # of their rates' roots instead, each the root of the count over that of its
    # sum: (sqrt PPV sqrt NPV)(sqrt TPR sqrt TNR)
    tp, fn, fp, tn = v.tp, v.fn, v.fp, v.tn
    sums = (tp + fp, tn + fn, tp + fn, tn + fp)
    roots = []
    for counts in ((tp, tn, tp, tn), (fp, fn, fn, fp)):
        a, b, c, d = map(_rate, counts, sums)
        product = (a * b) * (c * d)
        if product < sys.float_info.min and all(counts):
            a, b, c, d = (math.sqrt(x) / math.sqrt(s) for x, s in zip(counts, sums))
            roots.append((a * b) * (c * d))
        else:
            roots.append(math.sqrt(product))
    return roots[0] - roots[1]


def _precision(v):
    return _rate(v.tp, v.tp + v.fp)


def _sensitivity(v):
    return _rate(v.tp, v.tp + v.fn)


def _specificity(v):
    return _rate(v.tn, v.tn + v.fp)


def _npv(v):
    return _rate(v.tn, v.tn + v.fn)


# the two-class scores of one `TwoByTwo`, written out with scalar floats
TWO_CLASS = {
    "precision": _precision,
    "sensitivity": _sensitivity,
    "specificity": _specificity,
    "npv": _npv,
    "f1": lambda v: power_mean((_precision(v), _sensitivity(v)), -1.0),
    "f1_zero": lambda v: power_mean((_specificity(v), _npv(v)), -1.0),
    "fowlkes_mallows": lambda v: power_mean((_precision(v), _sensitivity(v)), 0.0),
    "mcc": _mcc_scalar,
    "lp_four_rate": lambda v, p: power_mean(
        (_sensitivity(v), _specificity(v), _precision(v), _npv(v)), p
    ),
}


def pair_views(cm):
    """The `TwoByTwo` of each pair i < j's 2x2 sub-table, class i positive,
    in row-major pair order."""
    return [
        TwoByTwo.of(restrict_to_pair(cm, i, j)) for i in range(cm.n) for j in range(i + 1, cm.n)
    ]


def one_vs_one_loop(cm, metric, outer, p=None, views=None):
    """`one_vs_one_average(cm, metric, outer, p).value`, one pair at a time.

    Each pair i < j is restricted to its 2x2 sub-table and scored through a
    `TwoByTwo` by the scalar formula in `TWO_CLASS`; a score that depends
    on the positive class is averaged over both orientations, and the pair
    values then go through the outer average.  A signed score takes the
    arithmetic, min or max outer on values that may be negative.  `views`,
    if given, is `pair_views(cm)`, built once for many calls.
    """
    info = METRICS["one_vs_one_" + metric]
    score = TWO_CLASS[metric]

    def evaluate(view):
        return score(view) if p is None else score(view, p)

    def average(values):
        if not info.signed:
            return power_mean(values, outer.exponent)
        if outer.exponent == 1:
            return math.fsum(values) / len(values)
        return float(min(values) if outer.exponent < 0 else max(values))

    values = []
    for view in pair_views(cm) if views is None else views:
        if info.swap_invariant:
            values.append(evaluate(view))
        else:
            values.append(average((evaluate(view), evaluate(view.swapped()))))
    return average(values)


def mcc_closed_form(tp, fn, fp, tn):
    """Eq.-6 style binary MCC straight from the four cells."""
    denom = (tp + fp) * (tp + fn) * (tn + fn) * (tn + fp)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(denom)


def _root(square):
    # the root of a Fraction in [0, 1], scaled by 4^k into the normal range
    # first, so a root below 1e-154 keeps its bits
    k = max(0, (square.denominator.bit_length() - square.numerator.bit_length()) // 2)
    return math.ldexp(math.sqrt(float(square * 4**k)), -k)


def mcc_exact(tp, fn, fp, tn):
    """Binary MCC from the four cells in exact rational arithmetic.

    Only the conversion of score^2 (scaled by a power of 4) to a float, its
    square root and the scaling back round, so cells of any size, subnormal
    ones included, give the score to an ulp or two.
    """
    tp, fn, fp, tn = (Fraction(x) for x in (tp, fn, fp, tn))
    denom = (tp + fp) * (tp + fn) * (tn + fn) * (tn + fp)
    if denom == 0:
        return 0.0
    num = tp * tn - fp * fn
    # the sign by comparison, since a float of num itself overflows for cells near 1e300
    return math.copysign(_root(num * num / denom), 1 if num >= 0 else -1)


def mcc_terms_exact(tp, fn, fp, tn):
    """The binary MCC's two terms in exact rational arithmetic, rounded as `mcc_exact` is.

    sqrt(TP^2 TN^2 / D) and sqrt(FP^2 FN^2 / D), D the product of the four
    marginals, whose difference is the MCC; (0.0, 0.0) when D is 0.  The rate
    form takes each term from four rates, so its error scales with the larger.
    """
    tp, fn, fp, tn = (Fraction(x) for x in (tp, fn, fp, tn))
    denom = (tp + fp) * (tp + fn) * (tn + fn) * (tn + fp)
    if denom == 0:
        return 0.0, 0.0
    return _root(tp * tp * tn * tn / denom), _root(fp * fp * fn * fn / denom)


def expand_labels(counts):
    """Rebuild (truth, prediction) index vectors from integer counts."""
    truth, pred = [], []
    c = np.asarray(counts)
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            reps = int(round(float(c[i, j])))
            truth.extend([i] * reps)
            pred.extend([j] * reps)
    return np.array(truth), np.array(pred)


def pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)


def chi_square(counts):
    """Pearson chi-square with zero-expected cells contributing zero."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    total = c.sum()
    chi2 = 0.0
    for i in range(c.shape[0]):
        for j in range(c.shape[1]):
            expected = rows[i] * cols[j] / total
            if expected > 0:
                chi2 += (c[i, j] - expected) ** 2 / expected
    return chi2


def cramers_phi_exact(counts):
    """Cramer's phi with chi2 in exact rational arithmetic, for any cell sizes."""
    c = [[Fraction(float(x)) for x in row] for row in counts]
    n = len(c)
    rows = [sum(row) for row in c]
    cols = [sum(c[i][j] for i in range(n)) for j in range(n)]
    total = sum(rows)
    chi2 = Fraction(0)
    for i in range(n):
        for j in range(n):
            expected = rows[i] * cols[j] / total
            if expected > 0:
                chi2 += (c[i][j] - expected) ** 2 / expected
    return math.sqrt(chi2 / total / (n - 1))


def phi_squared_exact(counts):
    """Cramer's phi squared as a Fraction, (sum of C^2 / (r c) - 1) / (n - 1) over
    the nonzero cells, with r and c their row and column sums: the chi-square sum
    expanded, since sum (O - E)^2 / E = total * sum O^2 / (r c) - total where
    E = r c / total.  Only the nonzero cells become Fractions, and the exact
    marginals are summed from them, so a wide sparse table costs its nonzero cells."""
    grid = np.asarray(counts, dtype=float)
    n = len(grid)
    i, j = np.nonzero(grid)
    cells = [(a, b, Fraction(x)) for a, b, x in zip(i.tolist(), j.tolist(), grid[i, j].tolist())]
    rows, cols = [Fraction(0)] * n, [Fraction(0)] * n
    for a, b, x in cells:
        rows[a] += x
        cols[b] += x
    squares = sum(x**2 / (rows[a] * cols[b]) for a, b, x in cells)
    return (squares - 1) / (n - 1)


def cramers_phi_ref(counts):
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    k = min(c.shape) - 1
    return float(np.sqrt((chi_square(c) / total) / k))


def harmonic_pair(a, b):
    if a <= 0 or b <= 0:
        return 0.0
    return 2.0 / (1.0 / a + 1.0 / b)


def gen_f1_ref(counts, outer):
    """Per-class harmonic mean of the two diagonal conditionals, then `outer`."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    hs = []
    for i in range(c.shape[0]):
        r = c[i, i] / rows[i] if rows[i] > 0 else 0.0
        s = c[i, i] / cols[i] if cols[i] > 0 else 0.0
        hs.append(harmonic_pair(r, s))
    return outer(hs)


def gen_fm_ref(counts, outer):
    diag = ratio_matrix(counts).diagonal()
    return outer(list(diag))


def arithmetic(values):
    return sum(values) / len(values)
