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
from .confusion import ConfusionMatrix, restrict_to_pair
from .confusion import _pair_average, _rates  # the whole-array rate kernel
from .means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    AverageKind,
    AveragingSpec,
    _check_exponent,
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

    with log|det C| from `np.linalg.slogdet` of the counts, and the score is
    sign * exp(log|det N|): subnormal below log|det N| ~ -708, +0.0 below
    ~ -745 whatever the sign.  It is exactly +-1 only with a permutation
    witness (`perfect_fit_permutation`), signed by its parity.
    """
    rows, cols = cm.row_sums, cm.col_sums
    if not (rows.all() and cols.all()):
        return 0.0
    sign, logdet = np.linalg.slogdet(cm.counts)
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


def _check_outer(outer: AveragingSpec) -> None:
    # outer aggregation must be a strictly monotone mean: the named trio or
    # a power mean with p <= 1
    if outer.kind in (AverageKind.MIN, AverageKind.MAX):
        raise ValueError(f"invalid outer spec: {outer.to_string()}")
    if outer.kind is AverageKind.POWER:
        try:
            _check_exponent(outer.p)
        except ValueError as exc:
            raise ValueError(f"invalid outer spec: {exc}") from None


def _per_class_average(
    cm: ConfusionMatrix, inner: AveragingSpec, outer: AveragingSpec
) -> float:
    # the inner mean pairs each class's precision with its recall
    _check_outer(outer)
    per_class = _pair_average(inner, *_diagonal_rates(cm))
    return apply_average(outer, tuple(per_class.tolist()))


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

    Cells with zero expected count contribute zero to chi2 (their observed
    count is necessarily zero too).  At n = 2 this equals |mcc_binary|.
    """
    total = cm.counts.sum()
    # chi2 over blocks of rows, so the temporaries stay in cache; a table
    # smaller than one block is a single block
    step = max(1, _PHI_BLOCK_CELLS // cm.n)
    chi2 = 0.0
    for lo in range(0, cm.n, step):
        expected = np.outer(cm.row_sums[lo:lo + step], cm.col_sums)
        expected /= total
        terms = cm.counts[lo:lo + step] - expected
        terms *= terms
        np.divide(terms, expected, out=terms, where=expected > 0)
        chi2 += float(terms.sum())
    phi = math.sqrt((chi2 / total) / (cm.n - 1))
    return min(1.0, phi)


def lp_multiclass(cm: ConfusionMatrix, p: float) -> float:
    """Power mean of the 2n diagonal rates (per-class precision and recall).

    p <= 1 (with -inf meaning the worst rate): exponents past 1 would
    reward lopsided class performance instead of penalizing it.
    """
    _check_exponent(p)
    rates = np.concatenate(_diagonal_rates(cm))
    return power_mean(tuple(rates.tolist()), p)


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


def _signed_outer(outer: AveragingSpec, values: list[float]) -> float:
    # means from the power family reject negative inputs, so a signed
    # metric only admits these three aggregations
    if outer.kind is AverageKind.ARITHMETIC:
        return sum(values) / len(values)
    if outer.kind is AverageKind.MIN:
        return float(min(values))
    if outer.kind is AverageKind.MAX:
        return float(max(values))
    raise ValueError(
        "average undefined on negative values: "
        f"{outer.to_string()} outer cannot aggregate a signed metric"
    )


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
    Signed metrics (mcc) admit only arithmetic / min / max outers.
    """
    info = METRICS.get(_OVO + metric)
    if info is None:
        raise ValueError(
            f"unknown binary metric {metric!r}; choose from {', '.join(BINARY_METRIC_NAMES)}"
        )
    if info.needs_p:
        if p is None:
            raise ValueError(f"{metric} needs an exponent p")
        _check_exponent(p)
    elif p is not None:
        raise ValueError(f"{metric} takes no exponent")

    if info.signed:
        # validate eagerly so a bad outer fails before any computation
        _signed_outer(outer, [0.0])
    else:
        _check_outer(outer)

    if info.needs_p:
        evaluate = lambda view: info.func(view, p)
    else:
        evaluate = info.func

    values = []
    for i in range(cm.n):
        for j in range(i + 1, cm.n):
            view = _binary.BinaryView(restrict_to_pair(cm, i, j))
            if info.swap_invariant:
                values.append(evaluate(view))
            else:
                both = (evaluate(view), evaluate(view.swapped()))
                values.append(
                    _signed_outer(outer, list(both))
                    if info.signed
                    else apply_average(outer, both)
                )

    value = _signed_outer(outer, values) if info.signed else apply_average(outer, values)
    return MetricScore(_OVO + metric, value, _parameters(outer, p), cm.n)


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
        raise ValueError(f"{name} needs p (e.g. {name}:p=-1)")
    if p is not None and not info.needs_p:
        hint = " (use outer=power:<float> for a power outer)" if info.takes_outer else ""
        raise ValueError(f"{name} takes no p option{hint}")
    if info.takes_outer:
        outer = outer or ARITHMETIC
    if name.startswith(_OVO):
        return one_vs_one_average(cm, name[len(_OVO):], outer, p)
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
