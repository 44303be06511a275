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
the 2n diagonal rates.  `METRICS` names every score with the options it
takes, and `evaluate_metric` scores a matrix by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import binary as _binary
from .confusion import ConfusionMatrix, _rates
from .means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    AveragingSpec,
    _check_exponent,
    _pair_average,
    apply_average,
    power_mean,
)

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
]

# rounding slack allowed on the |det| <= 1 bound before clamping
_DET_SLACK = 1e-10
_EPS = 2.0**-52  # the double-precision machine epsilon
# without a permutation witness the score stays strictly inside (-1, 1)
_BELOW_ONE = math.nextafter(1.0, 0.0)
# cells per row block of cramers_phi's temporaries, small enough for cache
_PHI_BLOCK_CELLS = 1 << 15


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
    otherwise linearly dependent).  At n = 2 this equals the classic
    two-class Matthews correlation coefficient.

    A class never present or never predicted (a zero row or column sum) gives
    exactly 0.0 by that structural test.  Otherwise N = diag(r)^-1/2 C diag(c)^-1/2
    for counts C with row sums r and column sums c, so

        log|det N| = log|det C| - (sum log r + sum log c) / 2

    with log|det C| from `np.linalg.slogdet` of the counts' transposed view
    (det C^T = det C, and LAPACK takes that Fortran-ordered view with a straight
    copy where C itself needs a transposing one), and the score is
    sign * exp(log|det N|): subnormal below log|det N| ~ -708, +0.0 below
    ~ -745 whatever the sign.  It is exactly +-1 only with a permutation
    witness (`perfect_fit_permutation`), signed by its parity.
    """
    rows, cols = cm.row_sums, cm.col_sums
    if not (rows.all() and cols.all()):
        return 0.0
    sign, logdet = np.linalg.slogdet(cm.counts.T)
    logs = np.log(np.concatenate((rows, cols)))
    logdet -= 0.5 * float(logs.sum())
    # the two sums of logs round apart by up to ~ n * eps * sum |log|; a
    # perfect fit lands within that of 0, and only its witness makes it +-1
    rounding = cm.n * _EPS * float(np.abs(logs).sum())
    if abs(logdet) <= rounding:
        witness = perfect_fit_permutation(cm)
        if witness is not None:
            return 1.0 if witness.parity == "even" else -1.0
    det = float(sign) * math.exp(logdet)
    # the mathematical bound is exact; anything past that rounding and a
    # slack is a bug
    if abs(det) > (1.0 + _DET_SLACK) * math.exp(rounding):
        raise ArithmeticError(f"determinant {det} outside [-1, 1]")
    # + 0.0 turns an underflowed -0.0 into 0.0
    return min(_BELOW_ONE, max(-_BELOW_ONE, det)) + 0.0


def _diagonal_rates(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class precision C[i,i] / col_sum(i) and recall C[i,i] / row_sum(i)."""
    diag = cm.counts.diagonal()
    return _rates(diag, cm.col_sums), _rates(diag, cm.row_sums)


def _check_outer(outer: AveragingSpec, signed: bool) -> None:
    """The outer rules, as ranges of the outer average's exponent.

    A signed metric takes only the means defined on negative values:
    arithmetic (1), min (-inf) and max (+inf).  Any other takes a strictly
    monotone mean, -inf < exponent <= 1."""
    exponent = outer.exponent
    if signed:
        if exponent != 1 and not math.isinf(exponent):
            raise ValueError(
                "average undefined on negative values: "
                f"{outer.to_string()} outer cannot aggregate a signed metric"
            )
    elif math.isinf(exponent):
        raise ValueError(f"invalid outer spec: {outer.to_string()}")
    else:
        try:
            _check_exponent(exponent)
        except ValueError as exc:
            raise ValueError(f"invalid outer spec: {exc}") from None


def _per_class_average(
    cm: ConfusionMatrix, inner: AveragingSpec, outer: AveragingSpec
) -> float:
    # the inner mean pairs each class's precision with its recall
    _check_outer(outer, False)
    per_class = _pair_average(inner, *_diagonal_rates(cm))
    return _rate_mean(per_class, outer.exponent)


def _rate_mean(rates: np.ndarray, p: float) -> float:
    """`power_mean(tuple(rates.tolist()), p)`, bit for bit, for rates a metric
    built itself: never NaN, and negative only where p is 1 or +-inf (a signed
    one-vs-one score), so the arithmetic, min, max and harmonic means skip the
    per-value checks and the two sums use the same builtin `sum`."""
    if p == 1:
        return sum(rates.tolist()) / len(rates)
    if math.isinf(p):
        return float(rates.max() if p > 0 else rates.min())
    if p == -1:
        # a zero or subnormal rate makes the sum inf: the scalar mean's 0.0 or
        # its rescaled fallback
        with np.errstate(divide="ignore", over="ignore"):
            total = sum((1.0 / rates).tolist())
        if total < math.inf:
            return len(rates) / total
    return power_mean(tuple(rates.tolist()), p)


def generalized_f1(cm: ConfusionMatrix, outer: AveragingSpec = ARITHMETIC) -> float:
    """Outer average of per-class F1 values.

    Class i's F1 is the harmonic mean of its two diagonal rates, the share
    of predicted-i that is truly i and the share of true-i predicted as i.
    """
    return _per_class_average(cm, HARMONIC, outer)


def generalized_fm(cm: ConfusionMatrix, outer: AveragingSpec = ARITHMETIC) -> float:
    """Outer average of per-class Fowlkes-Mallows values.

    Same as `generalized_f1` with the inner harmonic mean replaced by the
    geometric mean; equivalently an outer average of the diagonal of the
    geometric normalized matrix.  Dominates generalized_f1 for a matching
    outer because G >= H entrywise.
    """
    return _per_class_average(cm, GEOMETRIC, outer)


def cramers_phi(cm: ConfusionMatrix) -> float:
    """Chi-square association between truth and prediction, scaled to [0, 1].

        phi_c = sqrt( (chi2 / N) / (n - 1) )

    With row sums r, column sums c and expected counts E = r_i * (c_j / N),
    each cell's (O - E)^2 / E, divided by N, is ((O - E) / r_i) * ((O - E) / c_j),
    since E * N = r_i * c_j.  Both factors lie in [-1, 1], so no product leaves
    the double range at any scale of the counts.  A zero row or column sum has
    only zero cells, where O - E = 0, so it divides by 1 instead.
    At n = 2 this equals |mcc_binary|.
    """
    counts, rows, cols, n = cm.counts, cm.row_sums, cm.col_sums, cm.n
    shares = cols / cm.total
    row_div, col_div = np.where(rows > 0, rows, 1.0), np.where(cols > 0, cols, 1.0)
    # chi2 / N over blocks of rows, in two buffers reused by every block so
    # they stay in cache; a table smaller than one block is a single block
    step = max(1, _PHI_BLOCK_CELLS // n)
    buffers = np.empty((2, min(step, n), n))
    chi2_share = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        diff, by_col = buffers[:, : hi - lo]
        np.multiply(rows[lo:hi, None], shares, out=diff)
        np.subtract(counts[lo:hi], diff, out=diff)  # O - E
        np.divide(diff, col_div, out=by_col)
        np.divide(diff, row_div[lo:hi, None], out=diff)
        chi2_share += float(np.multiply(diff, by_col, out=diff).sum())
    phi = math.sqrt(chi2_share / (n - 1))
    return min(1.0, phi)


def lp_multiclass(cm: ConfusionMatrix, p: float) -> float:
    """Power mean of the 2n diagonal rates (per-class precision and recall).

    p <= 1 (with -inf meaning the worst rate): exponents past 1 would
    reward lopsided class performance instead of penalizing it.
    """
    _check_exponent(p)
    return _rate_mean(np.concatenate(_diagonal_rates(cm)), p)


@dataclass(frozen=True)
class MetricInfo:
    """One row of `METRICS`: a metric's function and the options it takes.

    A one-vs-one row holds the two-class score that `one_vs_one_average`
    applies to every class pair."""

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
    _OVO + "precision": MetricInfo(_binary.precision, takes_outer=True),
    _OVO + "sensitivity": MetricInfo(_binary.sensitivity, takes_outer=True),
    _OVO + "specificity": MetricInfo(_binary.specificity, takes_outer=True),
    _OVO + "npv": MetricInfo(_binary.npv, takes_outer=True),
    _OVO + "f1": MetricInfo(_binary.f1_binary, takes_outer=True),
    _OVO + "f1_zero": MetricInfo(_binary.f1_zero_binary, takes_outer=True),
    _OVO + "fowlkes_mallows": MetricInfo(_binary.fowlkes_mallows_binary, takes_outer=True),
    _OVO + "mcc": MetricInfo(
        _binary.mcc_binary, takes_outer=True, signed=True, swap_invariant=True
    ),
    _OVO + "lp_four_rate": MetricInfo(
        _binary.lp_four_rate_score, takes_outer=True, needs_p=True, swap_invariant=True
    ),
}

BINARY_METRIC_NAMES = tuple(name[len(_OVO):] for name in METRICS if name.startswith(_OVO))


def _parameters(outer: AveragingSpec | None, p: float | None) -> dict[str, str]:
    # MetricScore.parameters: the options that shaped a score
    parameters = {} if outer is None else {"outer": outer.to_string()}
    if p is not None:
        parameters["p"] = repr(float(p))
    return parameters


def _one_vs_one(
    cm: ConfusionMatrix, info: MetricInfo, outer: AveragingSpec, p: float | None
) -> float:
    # the per-pair loop behind `one_vs_one_average`, for a METRICS row whose
    # options `evaluate_metric` has checked
    _check_outer(outer, info.signed)
    evaluate = (lambda view: info.func(view, p)) if info.needs_p else info.func

    # pair (i, j), i positive: the BinaryView of its 2x2 restriction, read in place
    counts, view_of = cm.counts.tolist(), _binary._view
    values = []
    for i in range(cm.n):
        for j in range(i + 1, cm.n):
            view = view_of(counts[i][i], counts[i][j], counts[j][i], counts[j][j])
            if info.swap_invariant:
                values.append(evaluate(view))
            else:
                values.append(apply_average(outer, (evaluate(view), evaluate(view.swapped()))))
    return _rate_mean(np.array(values), outer.exponent)


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
    if _OVO + metric not in METRICS:
        raise ValueError(
            f"unknown binary metric {metric!r}; choose from {', '.join(BINARY_METRIC_NAMES)}"
        )
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
    info = METRICS.get(name)
    if info is None:
        raise ValueError(f"unknown metric {name!r}")
    if outer is not None and not info.takes_outer:
        raise ValueError(f"{name} takes no outer average")
    if info.needs_p and p is None:
        raise ValueError(f"{name} needs p: it needs an exponent <= 1 (e.g. {name}:p=-1)")
    if p is not None and not info.needs_p:
        hint = " (use outer=power:<float> for a power outer)" if info.takes_outer else ""
        raise ValueError(f"{name} takes no p option: it takes no exponent{hint}")
    if info.takes_outer:
        outer = outer or ARITHMETIC
    if name.startswith(_OVO):
        value = _one_vs_one(cm, info, outer, p)
    else:
        # past the checks, exactly the options this metric takes are set
        value = info.func(cm, *(option for option in (outer, p) if option is not None))
    return MetricScore(name, value, _parameters(outer, p), cm.n)


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
