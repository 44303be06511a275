"""Averaging functions over tuples of non-negative reals, and the number rule.

The workhorse is the power-mean family

    M_p(x_1, ..., x_k) = ((x_1^p + ... + x_k^p) / k) ** (1/p)

which collapses to the arithmetic mean at p = 1, the geometric mean as
p -> 0, the harmonic mean at p = -1, and the max / min in the limits
p -> +inf / -inf.  One kernel, `_power_mean`, holds every case, and gives
the named ones their own branch so the collapse is exact rather than
approximate; `power_mean(values, p)` is its one public door.  Every sum is
`math.fsum`, correctly rounded, so a mean does not depend on the order of
its values or on the interpreter.  An `AveragingSpec` is an average's name
and the exponent it stands for; its mean is `power_mean(values, spec.exponent)`.
`_column_means` is the kernel over the columns of arrays of rates, for
per-class F1 and Fowlkes-Mallows, the matrix N and the one-vs-one scores,
`_power_mean`'s bits in every column: at p = 1 or -1, and at p = 0 for two
rows, it is whole-array, summing each column by one ufunc add for two rows
and by the same `math.fsum`, called from C, for more, with one rule for the
columns the scalar must redo.

`_no_number` is the package's one rule for what counts as a number, applied
once where a caller's number comes in: an exponent (`_exponent`), a mean's
value, a table cell, a pair count, an alpha.  A signalling NaN is read there
as NaN (`_quiet`).  The kernel sees only floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "AveragingSpec",
    "HARMONIC",
    "GEOMETRIC",
    "ARITHMETIC",
    "MIN",
    "MAX",
    "power_mean",
]


_EXPONENTS = {
    "harmonic": -1.0,
    "geometric": 0.0,
    "arithmetic": 1.0,
    "min": -math.inf,
    "max": math.inf,
}


@dataclass(frozen=True)
class AveragingSpec:
    """Choice of averaging function: a name and the exponent it stands for.

    `name` is harmonic, geometric, arithmetic, min, max or 'power:<float>'
    with a finite exponent; the infinite limits are spelled min and max so
    that a spec is unambiguous when serialized.  A power name is rewritten
    to its one spelling, 'power:' and the float's repr (-0.0 read as 0.0),
    so equal specs serialize identically.  `exponent` is derived once, here:
    -1, 0, 1, -inf or +inf for the named averages, the parsed p otherwise.
    """

    name: str
    exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = self.name
        if isinstance(name, str) and name in _EXPONENTS:
            exponent = _EXPONENTS[name]
        elif isinstance(name, str) and name.startswith("power:"):
            raw = name[len("power:"):]
            try:
                exponent = float(raw) + 0.0  # + 0.0 reads -0.0 as 0.0
            except ValueError:
                raise ValueError(f"bad power exponent {raw!r}") from None
            if not math.isfinite(exponent):
                raise ValueError(
                    f"power exponent {raw!r} must be finite; use min or max for the limits"
                )
            object.__setattr__(self, "name", f"power:{exponent!r}")  # frozen
        else:
            raise ValueError(f"unknown averaging spec {name!r}")
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def power(cls, p: float) -> "AveragingSpec":
        return cls(f"power:{_exponent(p)!r}")


HARMONIC = AveragingSpec("harmonic")
GEOMETRIC = AveragingSpec("geometric")
ARITHMETIC = AveragingSpec("arithmetic")
MIN = AveragingSpec("min")
MAX = AveragingSpec("max")

# the normal positive doubles; a product outside them has lost bits or overflowed
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_SQRT_TINY = math.sqrt(_TINY)  # 2^-511, exact
# types that numpy or float() would read as a number, or fail on under another name;
# an array is read through its one cell, a date or a duration as a count of its units
_NON_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating, type(None),
                np.ndarray, np.datetime64, np.timedelta64)


def _no_number(kind: type) -> bool:
    # the one number rule: a type numpy would misread, or one with neither __float__ nor __index__
    number = hasattr(kind, "__float__") or hasattr(kind, "__index__")
    return not number or issubclass(kind, _NON_NUMBERS)


def _quiet(number: object) -> object:
    # a signalling NaN (a Decimal's) as NaN, which float() and comparisons accept
    is_snan = getattr(number, "is_snan", None)
    return math.nan if is_snan is not None and is_snan() else number


def _past_doubles(number: object) -> bool:
    # a finite number past the largest double: float() refuses an int or Fraction
    # there, and reads a Decimal there as an infinity it is not
    try:
        return math.isinf(float(number)) and number not in (math.inf, -math.inf)
    except OverflowError:
        return True


def _exponent(p: object) -> float:
    """A caller's exponent as a float: a non-number (`_no_number`) and NaN are refused
    by name, and a number past the double range reads as the infinity of its sign."""
    if type(p) is not float:
        if _no_number(type(p)):
            raise ValueError(f"exponent must be a number, not the {type(p).__name__} {p!r}")
        p = _quiet(p)
        p = (math.inf if p > 0 else -math.inf) if _past_doubles(p) else float(p)
    if math.isnan(p):
        raise ValueError("NaN exponent")
    return p + 0.0  # -0.0 reads as 0.0


def _validate(values: Sequence[float]) -> Sequence[float]:
    # shared domain checks: the means are defined on non-empty tuples of non-negative
    # numbers (`_no_number`) only.  They compute on Python floats, since numpy
    # scalars warn where an intermediate leaves the double range
    if len(values) == 0:
        raise ValueError("empty tuple")
    floats = True
    for v in values:
        if type(v) is not float:
            if _no_number(type(v)):
                raise ValueError(f"value must be a number, not the {type(v).__name__} {v!r}")
            v = _quiet(v)
            floats = False
        if v != v:  # NaN, the one value unequal to itself
            raise ValueError("NaN input")
        if v < 0:
            raise ValueError("negative input")
    if floats:
        return values
    try:
        converted = [float(v) for v in values]
    except OverflowError:  # an int or Fraction past the largest double
        converted = [math.inf]
    if math.inf in converted:  # an infinity, or a number past the largest double
        i = next((i for i, v in enumerate(values) if _past_doubles(v)), None)
        if i is not None:
            raise ValueError(f"value {i} is past the double range")
    return converted


def power_mean(values: Sequence[float], p: float) -> float:
    """Power mean with exponent p; accepts +-inf for the max / min limits.

    A zero entry annihilates the mean for p <= 0, and an infinite one gives
    +inf for p >= 0 and, for p < 0, only where every entry is: the limits of
    the formula.  Where an intermediate leaves the double range, the harmonic
    mean (p = -1) rescales by its smallest entry, k * low / sum(low / v); the
    geometric mean (p = 0) takes the product of up to three entries (a pair's
    correctly rounded sqrt(a * b) is the two-class Fowlkes-Mallows score),
    then sqrt(a) * sqrt(b) for a pair, then logs; and the arithmetic mean
    (p = 1) scales each entry down by a power of two.  The generic branch
    rescales by the largest (p > 0) or smallest (p < 0) entry so intermediate
    powers stay tame for large |p|, and averages r^p - 1 = expm1(p log r)
    rather than r^p: near p = 0 every r^p rounds to 1, and the 1/p-th power
    of their mean loses every bit.
    """
    return _power_mean(_validate(values), _exponent(p))


def _power_mean(values: Sequence[float], p: float) -> float:
    """`power_mean` on a non-empty sequence of floats it need not check: never
    NaN, and negative only where p is 1 or +-inf.  `math.fsum` raises
    OverflowError where a finite sum overflows; the arithmetic and harmonic
    means then take their fallbacks."""
    k = len(values)
    if k == 1:
        return values[0]
    if p == 1:
        try:
            return math.fsum(values) / k
        except OverflowError:  # scaled by a power of two 2^e > k, the sum is finite
            scale = 2.0 ** k.bit_length()
            return math.fsum([v / scale for v in values]) / k * scale
    if math.isinf(p):
        return max(values) if p > 0 else min(values)
    if p < _TINY and 0.0 in values:  # p <= 0, or a subnormal p read as 0
        return 0.0
    if p == -1:
        try:  # a reciprocal of a subnormal is inf, a sum of large ones overflows
            total = math.fsum(map((1.0).__truediv__, values))
        except OverflowError:
            total = math.inf
        if total < math.inf:
            return k / total if total else math.inf  # a zero total: every entry is inf
        low = min(values)
        return low * k / math.fsum(map(low.__truediv__, values))
    if abs(p) < _TINY:  # 0 or subnormal: the geometric mean to far below an ulp
        if k <= 3:
            product = math.prod(sorted(values))  # one order, whatever the input's
            if _TINY <= product <= _HUGE:
                return math.sqrt(product) if k == 2 else product ** (1.0 / 3.0)
            if k == 2:
                return math.sqrt(values[0]) * math.sqrt(values[1])
        return math.exp(math.fsum(map(math.log, values)) / k)
    anchor = max(values) if p > 0 else min(values)
    if anchor == 0.0 or anchor == math.inf:  # p > 0 and every entry 0, or the limit inf
        return anchor
    terms = []
    for v in values:
        ratio = v / anchor
        if ratio == 0:  # r^p - 1 at r = 0, p > 0
            terms.append(-1.0)
        else:  # a ratio past the double range (a subnormal anchor) keeps its log
            log_ratio = math.log(ratio) if ratio < math.inf else math.log(v) - math.log(anchor)
            terms.append(math.expm1(p * log_ratio))
    return anchor * math.exp(math.log1p(math.fsum(terms) / k) / p)


def _check_exponent(p: float) -> float:
    """The rate scores' exponent rule, returning `_exponent`'s float: p <= 1, -inf
    allowed.  Past p = 1 a power mean of rates rewards imbalance between them."""
    exponent = _exponent(p)
    if exponent > 1:
        raise ValueError(f"p must be <= 1, got {p}")
    return exponent


def _column_means(p: float, *rows: np.ndarray) -> np.ndarray:
    """`_power_mean(column, p)` for each column of k equal-shaped arrays of
    rates in [0, 1], as a new array of their shape.

    At p = 1 or -1, and at p = 0 (or a subnormal p) for k = 2, the means are
    whole-array in the scalar's roundings: a * b, 1/v, and a correctly rounded
    sum, one ufunc add for k = 2 and the scalar's `math.fsum` for more.  Past
    the double range the scalar's fallback gives a mean at most 2^-511, so once
    a positive rate is below 2^-511 the columns whose rates are all positive and
    whose mean is at most 2^-511 are redone by `_power_mean`.  Other exponents
    take logs, which numpy rounds apart from `math`; a single row is its own
    mean; and a sum that fsum finds past the doubles has no per-column value:
    each column then goes through `_power_mean`.
    """
    k, a = len(rows), rows[0]
    if k > 1 and (p == 1 or p == -1 or (k == 2 and abs(p) < _TINY)):
        try:
            if p == 1:  # a sum of rates stays in range: nothing to redo
                return _fsum_columns(rows) / k
            if p == -1:  # a zero rate gives k/inf = 0, as in the scalar
                # 1/0, a subnormal's 1/v, and two reciprocals whose sum is past the doubles
                with np.errstate(divide="ignore", over="ignore"):
                    totals = _fsum_columns([1.0 / row for row in rows])
        except OverflowError:  # a finite sum past the double range: the scalar's fallbacks
            pass
        else:
            means = np.minimum(a, rows[1])  # the smallest rates, then the means in their buffer
            for row in rows[2:]:
                np.minimum(means, row, out=means)
            positive = means > 0
            smallest = means.min(where=positive, initial=np.inf)
            if p == -1:
                np.divide(k, totals, out=means)
            else:
                np.sqrt(np.multiply(a, rows[1], out=means), out=means)
            if smallest < _SQRT_TINY:
                redo = positive & (means <= _SQRT_TINY)
                columns = zip(*[row[redo].tolist() for row in rows])
                means[redo] = [_power_mean(column, p) for column in columns]
            return means
    columns = zip(*[row.ravel().tolist() for row in rows])
    return np.array([_power_mean(column, p) for column in columns]).reshape(a.shape)


def _fsum_columns(terms: Sequence[np.ndarray]) -> np.ndarray:
    # each column's `math.fsum` over equal-shaped arrays: one ufunc add for two,
    # which rounds as fsum of two values and reads inf past the doubles, else fsum
    # mapped from C with no frame per column, which raises OverflowError where a
    # column's finite terms sum past the doubles
    if len(terms) == 2:
        return np.add(*terms)
    columns = zip(*[term.ravel().tolist() for term in terms])
    return np.fromiter(map(math.fsum, columns), float, terms[0].size).reshape(terms[0].shape)
