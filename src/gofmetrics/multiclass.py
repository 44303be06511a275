"""Multi-class goodness-of-fit scores over a confusion matrix.

The centerpiece is `generalized_mcc`: the determinant of the geometric
normalized confusion matrix.  Its magnitude is the volume of the
parallelepiped spanned by that matrix's rows, which is at most 1 and
reaches 1 only when the rows form a permutation matrix, i.e. when the
classifier is perfect up to a relabeling of its outputs
(`perfect_fit_permutation` recovers that relabeling).

The rest of the family: per-class F1 / Fowlkes-Mallows rolled up by a
caller-chosen average, the chi-square association score `cramers_phi`,
pairwise one-vs-one averages of any two-class score, and a power mean of
the 2n diagonal rates.  Every two-class score is an array function of the
n x n planes of pair rates (`ConfusionMatrix._pair_rates`, 0 over a zero
sum, built once per table), read at chosen entries: one-vs-one at all class
pairs in one pass (`_one_vs_one`), `two_class_score` at one.  `METRICS`
names every score with the options it takes, and `evaluate_metric` scores a
matrix by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .confusion import ConfusionMatrix, _integer
from .means import ARITHMETIC, AveragingSpec, _TINY, _check_exponent, _column_means, _power_mean

__all__ = [
    "MetricScore",
    "PermutationWitness",
    "generalized_mcc",
    "generalized_f1",
    "generalized_fm",
    "cramers_phi",
    "one_vs_one_average",
    "lp_multiclass",
    "perfect_fit_permutation",
    "MetricInfo",
    "METRICS",
    "BINARY_METRIC_NAMES",
    "evaluate_metric",
    "two_class_score",
]

# rounding slack allowed on the |det| <= 1 bound before clamping
_DET_SLACK = 1e-10
_EPS = 2.0**-52  # the double-precision machine epsilon
# without a permutation witness the score stays strictly inside (-1, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)
# cells per row block of cramers_phi's temporaries, small enough for cache
_PHI_BLOCK_CELLS = 1 << 15
# from these class counts on, on a table that keeps its nonzero cells
# (`ConfusionMatrix._nonzero_cells`), cramers_phi sums over those cells alone and
# `_eliminated_slogdet` runs, where each was measured to cost less than the whole
# table's block loop or LU; the elimination picks its pivots in `_LUBY_ROUNDS` rounds
_PHI_SPARSE_MIN_N = 256
_ELIMINATE_MIN_N = 500
_LUBY_ROUNDS = 3


@dataclass(frozen=True)
class MetricScore:
    """One evaluated metric: id, value, and the parameters that shaped it."""

    metric_id: str
    value: float
    parameters: dict[str, str] = field(default_factory=dict)
    n_classes: int = 0


@dataclass(frozen=True)
class PermutationWitness:
    """The output relabeling that turns a matrix into a perfect fit.

    mapping[j] = i means everything predicted as class j truly belongs to
    class i; parity is the sign of that permutation.
    """

    mapping: tuple[int, ...]
    parity: str  # "even" | "odd"


def generalized_mcc(cm: ConfusionMatrix) -> float:
    """Determinant of the geometric normalized confusion matrix, in [-1, 1].

    1 means perfect prediction up to class order, -1 perfect up to an odd
    relabeling, 0 means some class is never predicted (or the rows are
    otherwise linearly dependent).  At n = 2 it is the classic two-class
    Matthews correlation coefficient, `two_class_score(cm, "mcc")` bit for
    bit but for the witness rule below.

    A class never present or never predicted (a zero row or column sum) gives
    exactly 0.0 by that structural test.  Otherwise, at n >= 3,
    N = diag(r)^-1/2 C diag(c)^-1/2 for counts C with row sums r and column
    sums c, so

        log|det N| = log|det C| - (sum log r + sum log c) / 2

    with log|det C| from `np.linalg.slogdet` of the counts' transposed view
    (det C^T = det C, and LAPACK takes that Fortran-ordered view with a straight
    copy where C itself needs a transposing one), and the score is
    sign * exp(log|det N|): subnormal below log|det N| ~ -708, +0.0 below
    ~ -745 whatever the sign.  It is exactly +-1 only with a permutation
    witness (`perfect_fit_permutation`), signed by its parity.

    A wide sparse table, n >= 500 with at most 8n nonzero cells, first
    eliminates a set S of diagonal pivots exactly: class s may join S where
    C_ss > 0 is the largest cell of its column, and no two classes of S share
    an off-diagonal nonzero cell.  With T the other classes,

        log|det C| = sum_S log C_ss + log|det(C_TT - C_TS diag(C_SS)^-1 C_ST)|

    and only that smaller Schur complement takes the LU.  Every multiplier
    C_ts / C_ss is at most 1, as with partial pivoting; the sign, the witness
    rule, the |det| check and the rounding allowance, which also covers the
    pivots' logs, are kept.  Every other table, every table of at most 499
    classes among them, keeps the one LU's bits.
    """
    if not (cm.row_sums.all() and cm.col_sums.all()):
        return 0.0
    if cm.n == 2:  # the two-class MCC, with no LU and no rounding of logs
        mcc = _mcc(cm).item()
        if abs(mcc) == 1 and perfect_fit_permutation(cm) is None:
            return math.copysign(_BELOW_ONE, mcc)
        return mcc
    sign, logdet, rounding = _log_det(cm)
    # a perfect fit lands within rounding of 0, or at -inf when a subnormal
    # pivot flushed, and only its witness makes it +-1
    if abs(logdet) <= rounding or logdet == -math.inf:
        witness = perfect_fit_permutation(cm)
        if witness is not None:
            return 1.0 if witness.parity == "even" else -1.0
    # the mathematical bound is exact; anything past that rounding and a
    # slack is a bug, told on the log before its exp can overflow
    if logdet > math.log1p(_DET_SLACK) + rounding:
        raise ArithmeticError(f"determinant {'-' if sign < 0 else ''}exp({logdet}) outside [-1, 1]")
    det = sign * math.exp(logdet)
    # + 0.0 turns an underflowed -0.0 into 0.0
    return min(_BELOW_ONE, max(-_BELOW_ONE, det)) + 0.0


def _log_det(cm: ConfusionMatrix) -> tuple[float, float, float]:
    # (sign, log|det N|, rounding) of a table of n >= 3 classes whose every row and
    # column sum is positive.  A wide sparse table eliminates its independent dominant
    # pivots first (`_eliminated_slogdet`); any other takes one LU of the whole table
    counts, n = cm.counts, cm.n
    flat = cm._nonzero_cells if n >= _ELIMINATE_MIN_N else None
    if flat is not None:
        sign, logdet, pivot_logs = _eliminated_slogdet(counts, flat)
    else:
        with np.errstate(divide="ignore"):  # an LU pivot that flushes to 0 gives log 0
            sign, logdet = np.linalg.slogdet(counts.T)
        pivot_logs = 0.0
    logs = np.log(np.concatenate((cm.row_sums, cm.col_sums)))
    logdet -= 0.5 * float(logs.sum())
    # the sums of logs round apart by up to ~ n * eps * sum |log|
    rounding = n * _EPS * (float(np.abs(logs).sum()) + pivot_logs)
    return float(sign), float(logdet), rounding


def _eliminated_slogdet(counts: np.ndarray, flat: np.ndarray) -> tuple[float, float, float]:
    # (sign, log|det C|, sum of |log C_ss| over S) by exact elimination of a set S of
    # diagonal pivots before one LU of the rest, T:
    #     log|det C| = sum_S log C_ss + log|det(C_TT - C_TS diag(C_SS)^-1 C_ST)|
    # Class s may join S where C_ss > 0 is the largest cell of its column, so every
    # multiplier C_is / C_ss is at most 1, as partial pivoting would give, and no two
    # classes of S share an off-diagonal nonzero cell, so C_SS is diagonal and every
    # neighbour of S is in T.  S is chosen in a few Luby rounds over the nonzero
    # cells: a free class joins where it ranks below every free neighbour, by fewest
    # nonzero cells shared with free classes in its row and column, then by index
    n = counts.shape[0]
    i, j = np.divmod(flat, n)  # flat: the row-major indices of the nonzero cells
    off = i != j
    i, j = i[off], j[off]
    cells, diagonal = counts[i, j], counts.diagonal()
    column_max = np.zeros(n)
    np.maximum.at(column_max, j, cells)
    free = (diagonal > 0) & (diagonal >= column_max)
    chosen = np.zeros(n, dtype=bool)
    for _ in range(_LUBY_ROUNDS):
        live = free[i] & free[j]  # the cells between two free classes
        shared = np.bincount(i[live], minlength=n) + np.bincount(j[live], minlength=n)
        rank = shared * n + np.arange(n)
        lowest = np.full(n, 2 * n * n)  # above every rank
        np.minimum.at(lowest, i[live], rank[j[live]])
        np.minimum.at(lowest, j[live], rank[i[live]])
        joins = free & (rank < lowest)
        chosen |= joins
        free &= ~joins
        free[j[joins[i]]] = free[i[joins[j]]] = False
    keep = np.flatnonzero(~chosen)
    schur = counts.take(keep, 0).take(keep, 1)
    place = np.cumsum(~chosen) - 1  # each class of T's index in the complement
    # the update scattered from the nonzero cells: each cell (a, s) of a column of S,
    # as its multiplier C_as / C_ss, meets each cell (s, b) of row s
    column, row = chosen[j], chosen[i]
    s = j[column]
    multipliers = cells[column] / diagonal[s]
    row_ends = np.cumsum(np.bincount(i[row], minlength=n))  # row s's cells end here
    repeats = np.diff(row_ends, prepend=0)[s]
    ends = np.cumsum(repeats)
    # the row cell each update reads
    k = np.repeat(row_ends[s] - ends, repeats) + np.arange(repeats.sum())
    targets = np.repeat(place[i[column]] * keep.size, repeats) + place[j[row][k]]
    np.subtract.at(schur.reshape(-1), targets, np.repeat(multipliers, repeats) * cells[row][k])
    with np.errstate(divide="ignore"):
        sign, logdet = np.linalg.slogdet(schur.T)
    pivot_logs = np.log(diagonal[chosen])
    return sign, logdet + float(pivot_logs.sum()), float(np.abs(pivot_logs).sum())


def _check_outer(outer: AveragingSpec, signed: bool) -> None:
    """The outer rules, as ranges of the outer average's exponent.

    A signed metric takes only the means defined on negative values:
    arithmetic (1), min (-inf) and max (+inf).  Any other takes a strictly
    monotone mean, -inf < exponent <= 1.  Any outer but an `AveragingSpec` is refused."""
    if not isinstance(outer, AveragingSpec):
        kind = type(outer).__name__
        raise ValueError(f"outer must be an AveragingSpec, not the {kind} {outer!r}")
    exponent = outer.exponent
    if signed:
        if exponent != 1 and not math.isinf(exponent):
            raise ValueError(
                "average undefined on negative values: "
                f"{outer.name} outer cannot aggregate a signed metric"
            )
    elif not -math.inf < exponent <= 1:
        raise ValueError(
            f"invalid outer spec {outer.name}: an outer exponent must be <= 1 and not -inf"
        )


def generalized_f1(cm: ConfusionMatrix, outer: AveragingSpec = ARITHMETIC) -> float:
    """Outer average of per-class F1 values.

    Class i's F1 is the harmonic mean of its two diagonal rates, the share
    of predicted-i that is truly i and the share of true-i predicted as i.
    """
    _check_outer(outer, False)
    return _power_mean(cm._per_class_f1.tolist(), outer.exponent)


def generalized_fm(cm: ConfusionMatrix, outer: AveragingSpec = ARITHMETIC) -> float:
    """Outer average of per-class Fowlkes-Mallows values.

    Same as `generalized_f1` with the inner harmonic mean replaced by the
    geometric mean; equivalently an outer average of the diagonal of the
    geometric normalized matrix.  Dominates generalized_f1 for a matching
    outer because G >= H entrywise.
    """
    _check_outer(outer, False)
    return _power_mean(_column_means(0.0, *cm._diagonal_rates).tolist(), outer.exponent)


def cramers_phi(cm: ConfusionMatrix) -> float:
    """Chi-square association between truth and prediction, scaled to [0, 1].

        phi_c = sqrt( (chi2 / N) / (n - 1) )

    With row sums r, column sums c and E = r_i c_j / N, chi2 / N is the sum of u^2 over
    the cells, u = (O - E) / sqrt(r_i c_j) in [-1, 1]: the cells of the geometric
    normalization D_r^-1/2 C D_c^-1/2 less its rank-one part.  A cell takes one division,
    t = O / c_j - r_i / N = (O - E) / c_j, and u = t * sqrt(c_j) * (1 / sqrt(r_i)) is
    scaled before it is squared: an underflowed square loses under 2^-1074, and integer
    counts times an even power of two read the same bits.  A zero row or column sum
    divides by 1, and sqrt(0) zeroes the column's t = -r_i / N.
    At n = 2 this equals |two_class_score(cm, "mcc")|.

    A wide sparse table, n >= 256 with at most 8n nonzero cells (the bound of
    `generalized_mcc`'s elimination, from the same one scan of the table), sums u^2 over
    its nonzero cells alone, each by the arithmetic above.  A zero cell's u is
    -(r_i / N) sqrt(c_j) / sqrt(r_i), so row i's zero cells add (z_i sqrt(m_i))^2 in
    closed form, with z_i = (r_i / N) (1 / sqrt(r_i)) and m_i = N - (the sum of c_j over
    the row's nonzero cells), the predictions outside those columns; scaled before the
    square, so the even-power-of-two rule holds.  Where some row's nonzero columns hold
    more than half of all predictions, m_i would cancel, and the table takes the sum
    over every cell, as does every other table.
    """
    n = cm.n
    flat = cm._nonzero_cells if n >= _PHI_SPARSE_MIN_N else None
    chi2_share = None if flat is None else _sparse_chi2_share(cm, flat)
    if chi2_share is None:
        counts, rows = cm.counts, cm.row_sums
        col_div, col_roots, row_scales = _phi_scales(cm)
        # chi2 / N by blocks of rows in one buffer, reused by every block so it stays in cache
        step = max(1, _PHI_BLOCK_CELLS // n)
        buffer, chi2_share = np.empty((min(step, n), n)), 0.0
        for lo in range(0, n, step):
            u = buffer[: min(step, n - lo)]
            np.divide(counts[lo : lo + step], col_div, out=u)
            np.subtract(u, rows[lo : lo + step, None] / cm.total, out=u)  # (O - E) / c
            np.multiply(u, col_roots, out=u)
            np.multiply(u, row_scales[lo : lo + step, None], out=u)  # (O - E) / sqrt(r c)
            chi2_share += float(np.vdot(u, u))
    return min(1.0, math.sqrt(chi2_share / (n - 1)))


def _phi_scales(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # cramers_phi's divisor c_j and factor sqrt(c_j) a column and 1 / sqrt(r_i) a row,
    # a zero sum dividing by 1
    rows, cols = cm.row_sums, cm.col_sums
    row_scales = 1.0 / np.sqrt(np.where(rows > 0, rows, 1.0))
    return np.where(cols > 0, cols, 1.0), np.sqrt(cols), row_scales


def _sparse_chi2_share(cm: ConfusionMatrix, flat: np.ndarray) -> float | None:
    # chi2 / N from the nonzero cells, `flat` their row-major indices, each u by the block
    # loop's arithmetic, and each row's zero cells as (z_i sqrt(m_i))^2; None where a
    # row's nonzero columns hold more than half of all predictions, so that m_i, the
    # predictions outside them, cannot cancel
    n, total = cm.n, cm.total
    i, j = np.divmod(flat, n)
    held = np.bincount(i, weights=cm.col_sums[j], minlength=n)  # N - m_i
    if 2 * held.max() > total:
        return None
    col_div, col_roots, row_scales = _phi_scales(cm)
    shares = cm.row_sums / total
    u = cm.counts.take(flat) / col_div[j]
    u -= shares[i]  # (O - E) / c
    u *= col_roots[j]
    u *= row_scales[i]  # (O - E) / sqrt(r c)
    zeros = shares * row_scales * np.sqrt(total - held)
    return float(np.vdot(u, u)) + float(np.vdot(zeros, zeros))


def lp_multiclass(cm: ConfusionMatrix, p: float) -> float:
    """Power mean of the 2n diagonal rates (per-class precision and recall).

    p <= 1 (with -inf meaning the worst rate): exponents past 1 would
    reward lopsided class performance instead of penalizing it.
    """
    p = _check_exponent(p)
    return _power_mean(np.concatenate(cm._diagonal_rates).tolist(), p)


def _two_term(p: float, a: Callable, b: Callable) -> Callable[[ConfusionMatrix], np.ndarray]:
    # the array score that is the two-term mean of exponent p of scores a and b
    return lambda cm: _column_means(p, a(cm), b(cm))


# the two-class scores as array functions of `ConfusionMatrix._pair_rates`: at entry (i, j)
# class i is positive, and npv and specificity are precision and sensitivity transposed
_precision, _sensitivity = (lambda cm, k=k: cm._pair_rates[k] for k in (0, 1))
_npv, _specificity = (lambda cm, k=k: cm._pair_rates[k].T for k in (0, 1))
_f1 = _two_term(-1.0, _precision, _sensitivity)
_f1_zero = _two_term(-1.0, _specificity, _npv)
_fowlkes_mallows = _two_term(0.0, _precision, _sensitivity)


def _mcc(cm: ConfusionMatrix) -> np.ndarray:
    # at the class pairs i < j: the same bits with either class positive
    rates = cm._pair_rates
    halves = rates * rates.transpose(0, 2, 1)  # PPV NPV, TPR TNR, FDR FOR, FNR FPR
    products = (halves[::2] * halves[1::2]).reshape(2, -1).compress(cm._upper.ravel(), 1)
    roots = np.sqrt(products)
    # four positive counts whose rates' product falls below the normal range have lost bits
    # of it, or all of them where a rate underflowed to 0: there each rate's root is the
    # quotient of the roots of its count and its sum; counts within 2^254 of the total have none
    if products.min() < _TINY:
        counts = cm.counts
        if cm.total > 2.0**254 * float(counts[counts > 0].min()):
            i, j = np.nonzero(cm._upper)
            tp, fn, fp, tn = counts[i, i], counts[i, j], counts[j, i], counts[j, j]
            cells = np.array([[tp, tp, tn, tn], [fp, fn, fp, fn]])  # the terms of each sum
            term, pair = ((products < _TINY) & cells.all(axis=1)).nonzero()  # the low terms
            sums = cells[0, :, pair] + cells[1, :, pair]
            cells = np.sqrt(cells[term, :, pair]) / np.sqrt(sums)
            roots[term, pair] = (cells[:, 0] * cells[:, 3]) * (cells[:, 1] * cells[:, 2])
    return roots[0] - roots[1]


def _lp_four_rate(cm: ConfusionMatrix, p: float) -> np.ndarray:
    # at the class pairs i < j, as its per-pair fsum would cost twice as much on the planes
    (precision, sensitivity), upper = cm._pair_rates[:2], cm._upper
    rates = precision[upper], sensitivity[upper], sensitivity.T[upper], precision.T[upper]
    return _column_means(p, *rates)


@dataclass(frozen=True)
class MetricInfo:
    """One row of `METRICS`: a metric's function and the options it takes.

    A one-vs-one row holds the two-class score as an array function of the
    table's `ConfusionMatrix._pair_rates`: an n x n plane, class i positive at
    (i, j), or where `swap_invariant` is set, the values of the class pairs
    i < j.  `one_vs_one_average` reads every pair, `two_class_score` one."""

    func: Callable
    takes_outer: bool = False  # an outer average, arithmetic by default
    needs_p: bool = False  # an exponent p <= 1
    signed: bool = False  # range [-1, 1] rather than [0, 1]
    swap_invariant: bool = False  # one-vs-one: unchanged when the pair's positive class swaps


_OVO = "one_vs_one_"

# The one list of metric names: the library's by-name entry point, the CLI
# and the test sweeps all read it.
METRICS: dict[str, MetricInfo] = {
    "generalized_mcc": MetricInfo(generalized_mcc, signed=True),
    "generalized_f1": MetricInfo(generalized_f1, takes_outer=True),
    "generalized_fm": MetricInfo(generalized_fm, takes_outer=True),
    "cramers_phi": MetricInfo(cramers_phi),
    "lp_multiclass": MetricInfo(lp_multiclass, needs_p=True),
    _OVO + "precision": MetricInfo(_precision, takes_outer=True),
    _OVO + "sensitivity": MetricInfo(_sensitivity, takes_outer=True),
    _OVO + "specificity": MetricInfo(_specificity, takes_outer=True),
    _OVO + "npv": MetricInfo(_npv, takes_outer=True),
    _OVO + "f1": MetricInfo(_f1, takes_outer=True),
    _OVO + "f1_zero": MetricInfo(_f1_zero, takes_outer=True),
    _OVO + "fowlkes_mallows": MetricInfo(_fowlkes_mallows, takes_outer=True),
    _OVO + "mcc": MetricInfo(_mcc, takes_outer=True, signed=True, swap_invariant=True),
    _OVO + "lp_four_rate": MetricInfo(
        _lp_four_rate, takes_outer=True, needs_p=True, swap_invariant=True
    ),
}

BINARY_METRIC_NAMES = tuple(name[len(_OVO):] for name in METRICS if name.startswith(_OVO))


def _one_vs_one(
    cm: ConfusionMatrix, info: MetricInfo, outer: AveragingSpec, p: float | None
) -> float:
    # `one_vs_one_average` for a METRICS row whose options `evaluate_metric`
    # has checked: the score of every pair, and of every pair with its other
    # class positive, then the outer mean over both and over the pairs
    values = info.func(cm, *(() if p is None else (p,)))
    if not info.swap_invariant:
        # both orientations in one call, the planes and their transposes at i < j: the
        # kernels are element-wise, and `_column_means` gives each column the scalar's bits
        upper = cm._upper
        values = _column_means(outer.exponent, values[upper], values.T[upper])
    return _power_mean(values.tolist(), outer.exponent)


def one_vs_one_average(
    cm: ConfusionMatrix,
    metric: str,
    outer: AveragingSpec = ARITHMETIC,
    p: float | None = None,
) -> MetricScore:
    """Evaluate a two-class metric on every class pair and average.

    Each unordered pair (i, j), i < j, is restricted to its 2x2 sub-table.
    Metrics that depend on which class is called positive are evaluated in
    both orientations and combined with the same outer average before the
    cross-pair aggregation, so the composite never depends on class order.
    Signed metrics (mcc) admit only arithmetic / min / max outers.  The
    options follow the `one_vs_one_<metric>` row of `METRICS`, as in
    `evaluate_metric`.
    """
    _lookup(metric, _OVO)
    return evaluate_metric(cm, _OVO + metric, outer, p)


def evaluate_metric(
    cm: ConfusionMatrix,
    name: str,
    outer: AveragingSpec | None = None,
    p: float | None = None,
) -> MetricScore:
    """Score `cm` with the metric called `name` in `METRICS`.

    `outer` and `p` must be given exactly where the metric's row says it
    takes them; `outer` defaults to arithmetic.  Raises ValueError for an
    unknown name, a missing or unexpected option, or an invalid value.
    """
    info = _lookup(name)
    if outer is not None and not info.takes_outer:
        raise ValueError(f"{name} takes no outer average")
    hint = " (use outer=power:<float> for a power outer)" if info.takes_outer else ""
    p = _read_p(name, info.needs_p, p, hint)
    if info.takes_outer:
        outer = outer or ARITHMETIC
        _check_outer(outer, info.signed)
    if name.startswith(_OVO):
        value = _one_vs_one(cm, info, outer, p)
    else:
        # past the checks, exactly the options this metric takes are set
        value = info.func(cm, *(option for option in (outer, p) if option is not None))
    # the options that shaped the score
    parameters = {} if outer is None else {"outer": outer.name}
    if p is not None:
        parameters["p"] = repr(p)
    return MetricScore(name, value, parameters, cm.n)


def two_class_score(
    cm: ConfusionMatrix, metric: str, positive_index: int = 0, p: float | None = None
) -> float:
    """Score a 2x2 table by a two-class metric, class `positive_index` positive.

    `metric` is a name in `BINARY_METRIC_NAMES`, scored by the function of
    its `one_vs_one_<metric>` row of `METRICS`, and p is given exactly where
    that row needs it, as in `evaluate_metric`.  With class k positive,
    TP = C[k][k], FN = C[k][1-k], FP = C[1-k][k] and TN = C[1-k][1-k]:

    - precision TP/(TP+FP), sensitivity TP/(TP+FN), specificity TN/(TN+FP)
      and npv TN/(TN+FN), each 0 over a zero sum;
    - f1 and fowlkes_mallows, the harmonic and geometric means of precision
      and sensitivity; f1_zero, the harmonic mean of specificity and npv;
    - lp_four_rate, the power mean of exponent p <= 1 of sensitivity,
      specificity, precision and npv;
    - mcc, (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FN)(TN+FP)), 0 when a
      marginal is 0, taken from rates as sqrt((PPV NPV)(TPR TNR)) -
      sqrt((FDR FOR)(FNR FPR)), or from the counts where a term's rates lose
      bits (`_mcc`): bounded by construction, the same bits with either
      class positive, and `generalized_mcc`'s at n = 2.

    positive_index follows `relabel`'s index rule: a bool or float is no index.
    """
    if cm.n != 2:
        raise ValueError(f"two_class_score needs a 2x2 matrix, got {cm.n}x{cm.n}")
    info = _lookup(metric, _OVO)
    positive = _integer(positive_index)
    if positive not in (0, 1):
        kind = f"{type(positive_index).__name__} {positive_index!r}"
        raise ValueError(f"positive_index must be 0 or 1, not the {kind}")
    p = _read_p(metric, info.needs_p, p)
    value = info.func(cm, *(() if p is None else (p,)))
    return (value if info.swap_invariant else value[positive, 1 - positive]).item()


def _lookup(name: object, prefix: str = "") -> MetricInfo:
    # the METRICS row called prefix + name; a name that is no str is refused
    # by its type before it meets the dict
    if not isinstance(name, str):
        raise ValueError(f"metric name must be a str, not the {type(name).__name__} {name!r}")
    info = METRICS.get(prefix + name)
    if info is None and prefix:
        raise ValueError(
            f"unknown binary metric {name!r}; choose from {', '.join(BINARY_METRIC_NAMES)}"
        )
    if info is None:
        raise ValueError(f"unknown metric {name!r}")
    return info


def _read_p(name: str, needs_p: bool, p: object, hint: str = "") -> float | None:
    # p is given exactly where the metric needs it, and read once, as the
    # float it stands for
    if p is None:
        if needs_p:
            raise ValueError(f"{name} needs p: it needs an exponent <= 1 (e.g. {name}:p=-1)")
        return None
    if not needs_p:
        raise ValueError(f"{name} takes no p option: it takes no exponent{hint}")
    return _check_exponent(p)


def _parity(mapping: tuple[int, ...]) -> str:
    # sign via cycle decomposition: (-1) ** (n - number_of_cycles)
    n = len(mapping)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        k = start
        while not seen[k]:
            seen[k] = True
            k = mapping[k]
    return "even" if (n - cycles) % 2 == 0 else "odd"


def perfect_fit_permutation(cm: ConfusionMatrix) -> PermutationWitness | None:
    """Recover the relabeling behind a perfect-up-to-permutation fit.

    Returns a witness when every row and column holds exactly one positive
    cell (so the normalized matrix is exactly a permutation matrix), else
    None.  Whenever |generalized_mcc| is exactly 1, a witness exists.
    """
    positive = cm.counts > 0
    if (positive.sum(axis=0) != 1).any() or (positive.sum(axis=1) != 1).any():
        return None
    mapping = tuple(positive.argmax(axis=0).tolist())
    return PermutationWitness(mapping, _parity(mapping))
