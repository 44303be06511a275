"""Independent numpy references for every score the benchmark requests.

Nothing here calls gofmetrics: each score is recomputed from the count
table with whole-array operations (the vectorised normalized matrix,
`np.linalg.slogdet`, the closed-form chi-square, pairwise 2x2 cells taken
straight from the table), so a defect in the program's scalar plumbing
cannot hide in its own reference.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# below this, exp(log|det|) is not a normal double and only the sign is checked
LOG_TINY = math.log(sys.float_info.min)
RTOL, ATOL = 1e-9, 1e-12
DET_RTOL, DET_ATOL = 1e-6, 1e-12
SIGNED = {"generalized_mcc", "one_vs_one_mcc:min"}


def normalized(counts: np.ndarray) -> np.ndarray:
    """C / sqrt(outer(row_sums, col_sums)), 0 wherever the denominator is 0."""
    denom = np.sqrt(np.outer(counts.sum(axis=1), counts.sum(axis=0)))
    out = np.zeros_like(counts)
    np.divide(counts, denom, out=out, where=denom > 0)
    return out


def _ratio(num, den):
    num, den = np.broadcast_arrays(np.asarray(num, float), np.asarray(den, float))
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _hmean(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # harmonic mean that is 0 whenever any entry is 0, as the paper's limit
    safe = np.where(x > 0, x, 1.0)
    h = x.shape[axis] / np.sum(1.0 / safe, axis=axis)
    return np.where(np.all(x > 0, axis=axis), h, 0.0)


def _diagonal_rates(counts):
    d = np.diag(counts)
    return _ratio(d, counts.sum(axis=0)), _ratio(d, counts.sum(axis=1))


def _pair_cells(counts):
    i, j = np.triu_indices(counts.shape[0], 1)
    d = np.diag(counts)
    return d[i], counts[i, j], counts[j, i], d[j]  # tp, fn, fp, tn


def _cramers_phi(counts):
    # chi2 = N * (sum C^2 / (r c) - 1) over cells with r c > 0
    rc = np.outer(counts.sum(axis=1), counts.sum(axis=0))
    total = counts.sum()
    chi2 = total * (_ratio(counts**2, rc).sum() - 1.0)
    return min(1.0, math.sqrt(max(chi2, 0.0) / total / (counts.shape[0] - 1)))


def _ovo_mcc_min(counts):
    tp, fn, fp, tn = _pair_cells(counts)
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fn) * (tn + fp))
    return float(_ratio(tp * tn - fp * fn, denom).min())


def _ovo_f1(counts):
    tp, fn, fp, tn = _pair_cells(counts)
    pos = _hmean(np.stack([_ratio(tp, tp + fp), _ratio(tp, tp + fn)], axis=-1))
    neg = _hmean(np.stack([_ratio(tn, tn + fn), _ratio(tn, tn + fp)], axis=-1))
    return float(((pos + neg) / 2).mean())


def _ovo_lp4(counts):
    tp, fn, fp, tn = _pair_cells(counts)
    rates = [_ratio(tp, tp + fn), _ratio(tn, tn + fp), _ratio(tp, tp + fp), _ratio(tn, tn + fn)]
    return float(_hmean(np.stack(rates, axis=-1)).mean())


def _f1_per_class(counts):
    prec, rec = _diagonal_rates(counts)
    return _hmean(np.stack([prec, rec], axis=-1))


def _fm_per_class(counts):
    prec, rec = _diagonal_rates(counts)
    return np.sqrt(prec * rec)


_SCORES = {
    "generalized_mcc": lambda c: np.linalg.slogdet(normalized(c)),
    "generalized_f1": lambda c: float(_f1_per_class(c).mean()),
    "generalized_f1:harmonic": lambda c: float(_hmean(_f1_per_class(c))),
    "generalized_fm": lambda c: float(_fm_per_class(c).mean()),
    "cramers_phi": _cramers_phi,
    "lp_multiclass:p=-1": lambda c: float(_hmean(np.concatenate(_diagonal_rates(c)))),
    "one_vs_one_mcc:min": _ovo_mcc_min,
    "one_vs_one_f1": _ovo_f1,
    "one_vs_one_lp_four_rate:p=-1": _ovo_lp4,
}


def reference_scores(counts: np.ndarray, names) -> dict:
    """Reference value per score name; generalized_mcc maps to (sign, log|det|)."""
    return {name: _SCORES[name](counts) for name in names}


def structural_zero(counts: np.ndarray) -> bool:
    """Some class is never predicted (zero column) or never present (zero row)."""
    return bool((counts.sum(axis=0) == 0).any() or (counts.sum(axis=1) == 0).any())


def never_predicted(counts: np.ndarray) -> bool:
    return bool((counts.sum(axis=0) == 0).any())


def tally(truth: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and count table by np.unique(return_inverse) plus np.bincount."""
    labels, codes = np.unique(np.concatenate([truth, pred]), return_inverse=True)
    k, rows = len(labels), len(truth)
    flat = codes[:rows] * k + codes[rows:]
    return labels, np.bincount(flat, minlength=k * k).reshape(k, k).astype(float)


def _close(value, ref, rtol, atol):
    return abs(value - ref) <= rtol * abs(ref) + atol


def check(counts: np.ndarray, values: dict, refs: dict) -> tuple[list[str], bool]:
    """Compare program values with references.

    Returns (wrong, underflow).  `wrong` lists every disagreement the
    reference can decide: a value outside its declared range, a value off
    by more than the tolerance, a nonzero score on a table with a class that
    is never predicted, or a wrong sign.  `underflow` is set when
    generalized_mcc is exactly 0.0 although every class is predicted and
    present and the reference log|det| is finite but below the normal
    double range: the returned double is the nearest one to the true
    score, but the paper's contract (0 only when some class is never
    predicted or the rows are dependent) is broken.
    """
    wrong: list[str] = []
    underflow = False
    for name, value in values.items():
        lo = -1.0 if name in SIGNED else 0.0
        if not lo <= value <= 1.0:
            wrong.append(f"{name}={value!r} outside [{lo:g}, 1]")
            continue
        if name == "cramers_phi":
            # the closed form loses absolute precision to cancellation in
            # chi2 itself, so compare phi^2, which is proportional to chi2
            if not _close(value**2, refs[name] ** 2, RTOL, ATOL):
                wrong.append(f"{name}={value!r}, reference {refs[name]!r}")
            continue
        if name != "generalized_mcc":
            if not _close(value, refs[name], RTOL, ATOL):
                wrong.append(f"{name}={value!r}, reference {refs[name]!r}")
            continue
        sign, logdet = refs[name]
        ref = float(sign * math.exp(logdet)) if logdet > LOG_TINY else 0.0
        if structural_zero(counts):
            if value != 0.0:
                wrong.append(f"generalized_mcc={value!r} on a table with an empty class")
        elif value == 0.0 and -math.inf < logdet <= LOG_TINY:
            underflow = True
        elif logdet > LOG_TINY or logdet == -math.inf:
            # log|det| = -inf: the rows are dependent, so the score is 0 up
            # to rounding
            if not _close(value, ref, DET_RTOL, DET_ATOL):
                wrong.append(f"generalized_mcc={value!r}, reference {ref!r}")
        elif value != 0.0 and (np.sign(value) != sign or abs(value) >= sys.float_info.min):
            wrong.append(f"generalized_mcc={value!r}, reference {sign:+g}*exp({logdet:.6g})")
    return wrong, underflow
