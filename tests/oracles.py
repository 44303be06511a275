"""Independent reference computations used to pin expected test values.

Everything here is deliberately written along a different code path than the
package under test: determinants by cofactor expansion instead of elimination,
normalized matrices by the closed-form count/sqrt(marginal product) ratio
instead of conditional-probability averaging, correlation by expanding the
confusion matrix back into label vectors.

The exceptions are the scalar loops (`normalized_loop`, `diagonal_rates_loop`):
they keep the package's original one-cell-at-a-time construction, with its
scalar `apply_average`, as the reference its whole-array code must reproduce.
Likewise `pairs_csv_loop` keeps the original row-at-a-time label-pairs reader
as the reference for the streaming one, and `one_vs_one_loop` the original
pair-at-a-time one-vs-one loop, with a 2x2 sub-table (`restrict_to_pair`,
which the package no longer has) and a `BinaryView` per pair, as the
reference for the one that reads the table's cells directly.
"""

import csv
import io
import math
from fractions import Fraction

import numpy as np

from gofmetrics.binary import BinaryView
from gofmetrics.cli import InputError
from gofmetrics.confusion import ConfusionMatrix
from gofmetrics.means import apply_average
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
    """Normalized matrix cell by cell: apply_average of (col rate, row rate)."""
    c = np.asarray(counts, dtype=float)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    n = c.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            by_col = float(c[i, j] / cols[j]) if cols[j] != 0 else 0.0
            by_row = float(c[i, j] / rows[i]) if rows[i] != 0 else 0.0
            out[i, j] = apply_average(averaging, (by_col, by_row))
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
    with open(path, "r", encoding="utf-8") as fh:
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
    sub = cm.counts[np.ix_(idx, idx)]
    sub.setflags(write=False)
    return ConfusionMatrix((cm.labels[i], cm.labels[j]), sub)


def one_vs_one_loop(cm, metric, outer, p=None):
    """`one_vs_one_average(cm, metric, outer, p).value`, one pair at a time.

    Each pair i < j is restricted to its 2x2 sub-table and scored through a
    `BinaryView` by the package's own two-class score; a score that depends
    on the positive class is averaged over both orientations, and the pair
    values then go through the outer average.  A signed score takes the
    arithmetic, min or max outer on values that may be negative.
    """
    info = METRICS["one_vs_one_" + metric]

    def evaluate(view):
        return info.func(view) if p is None else info.func(view, p)

    def average(values):
        if not info.signed:
            return apply_average(outer, values)
        if outer.exponent == 1:
            return sum(values) / len(values)
        return float(min(values) if outer.exponent < 0 else max(values))

    values = []
    for i in range(cm.n):
        for j in range(i + 1, cm.n):
            view = BinaryView(restrict_to_pair(cm, i, j))
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


def mcc_exact(tp, fn, fp, tn):
    """Binary MCC from the four cells in exact rational arithmetic.

    Only the conversion of score^2 to a float and its square root round, so
    cells of any size, subnormal ones included, give the score to an ulp or two.
    """
    tp, fn, fp, tn = (Fraction(x) for x in (tp, fn, fp, tn))
    denom = (tp + fp) * (tp + fn) * (tn + fn) * (tn + fp)
    if denom == 0:
        return 0.0
    num = tp * tn - fp * fn
    return math.copysign(math.sqrt(num * num / denom), num)


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


def exact_ratio_matrix(counts):
    """Eq.-7 entries as exact squared rationals: sign-free, for cross-checks.

    Returns the matrix of M[i][j]**2 as Fractions (geometric means square to
    rationals), which lets small determinant cross-checks run without float
    noise where all entries share rational squares.
    """
    c = [[Fraction(int(x)) for x in row] for row in counts]
    n = len(c)
    rows = [sum(c[i][j] for j in range(n)) for i in range(n)]
    cols = [sum(c[i][j] for i in range(n)) for j in range(n)]
    return [
        [
            (c[i][j] * c[i][j]) / (rows[i] * cols[j])
            if rows[i] > 0 and cols[j] > 0
            else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
