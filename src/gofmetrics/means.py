"""Averaging functions over tuples of non-negative reals.

The workhorse is the power-mean family

    M_p(x_1, ..., x_k) = ((x_1^p + ... + x_k^p) / k) ** (1/p)

which collapses to the arithmetic mean at p = 1, the geometric mean as
p -> 0, the harmonic mean at p = -1, and the max / min in the limits
p -> +inf / -inf.  The named cases get dedicated implementations so the
collapse is exact rather than approximate.  `AveragingSpec` is the small
value object the rest of the package uses to pick one; its `exponent` is
the one place a named average is mapped to its p.  `_pair_average` is the
element-wise form over two arrays of rates, for the only two pair means the
metrics take: harmonic (per-class F1) and geometric (per-class
Fowlkes-Mallows and the normalized matrix N).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "AverageKind",
    "AveragingSpec",
    "HARMONIC",
    "GEOMETRIC",
    "ARITHMETIC",
    "MIN",
    "MAX",
    "harmonic_mean",
    "geometric_mean",
    "arithmetic_mean",
    "power_mean",
    "apply_average",
]


class AverageKind(Enum):
    HARMONIC = "harmonic"
    GEOMETRIC = "geometric"
    ARITHMETIC = "arithmetic"
    POWER = "power"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AveragingSpec:
    """Choice of averaging function.

    `p` is the exponent for the POWER kind and must be finite there; the
    infinite limits are spelled as the explicit MIN / MAX kinds instead of
    IEEE infinities so that a spec is unambiguous when serialized.
    """

    kind: AverageKind
    p: float | None = None
    # the power-mean exponent this average stands for: -1, 0 or 1 for
    # harmonic, geometric and arithmetic, -inf or +inf for min and max, and
    # p for a power average; derived once, here, from kind and p
    exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is AverageKind.POWER:
            if self.p is None:
                raise ValueError("power average needs an exponent")
            _refuse_bool(self.p)
            if not math.isfinite(self.p):
                raise ValueError(
                    "power exponent must be finite; use min or max for the limits"
                )
            exponent = self.p
        elif self.p is not None:
            raise ValueError(f"{self.kind.value} average takes no exponent")
        else:
            exponent = _EXPONENTS[self.kind]
        object.__setattr__(self, "exponent", exponent)  # the dataclass is frozen

    @classmethod
    def power(cls, p: float) -> "AveragingSpec":
        _refuse_bool(p)
        return cls(AverageKind.POWER, float(p))

    @classmethod
    def from_string(cls, text: str) -> "AveragingSpec":
        """Parse 'harmonic', 'geometric', 'arithmetic', 'min', 'max', or 'power:<float>'."""
        text = text.strip()
        if text.startswith("power:"):
            raw = text[len("power:"):]
            try:
                p = float(raw)
            except ValueError:
                raise ValueError(f"bad power exponent {raw!r}") from None
            return cls.power(p)
        for kind in _EXPONENTS:  # the named averages
            if text == kind.value:
                return cls(kind)
        raise ValueError(f"unknown averaging spec {text!r}")

    def to_string(self) -> str:
        if self.kind is AverageKind.POWER:
            return f"power:{self.p!r}"
        return self.kind.value


_EXPONENTS = {
    AverageKind.HARMONIC: -1.0,
    AverageKind.GEOMETRIC: 0.0,
    AverageKind.ARITHMETIC: 1.0,
    AverageKind.MIN: -math.inf,
    AverageKind.MAX: math.inf,
}


HARMONIC = AveragingSpec(AverageKind.HARMONIC)
GEOMETRIC = AveragingSpec(AverageKind.GEOMETRIC)
ARITHMETIC = AveragingSpec(AverageKind.ARITHMETIC)
MIN = AveragingSpec(AverageKind.MIN)
MAX = AveragingSpec(AverageKind.MAX)

# the normal positive doubles; a product outside them has lost bits or overflowed
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_SQRT_TINY = math.sqrt(_TINY)  # 2^-511, exact
_BOOLS = (bool, np.bool_)


def _validate(values: Sequence[float]) -> Sequence[float]:
    # shared domain checks: the means are defined on non-empty tuples of
    # non-negative reals only.  They compute on Python floats, since numpy
    # scalars warn where an intermediate leaves the double range
    if len(values) == 0:
        raise ValueError("empty tuple")
    floats = True
    for v in values:
        if v != v:  # NaN, the one value unequal to itself
            raise ValueError("NaN input")
        if v < 0:
            raise ValueError("negative input")
        if type(v) is not float:
            floats = False
    return values if floats else [float(v) for v in values]


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean; returns 0.0 if any entry is 0 (the limiting value).

    Where a reciprocal overflows, the smallest entry low scales them all:
    k * low / sum(low / v).
    """
    values = _validate(values)
    for v in values:
        if v == 0:
            return 0.0
    total = sum(1.0 / v for v in values)
    if math.isinf(total):
        low = min(values)
        return low * len(values) / sum(low / v for v in values)
    return len(values) / total


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; returns 0.0 if any entry is 0.

    Short tuples multiply directly while the product is a normal double (a
    pair is then sqrt(a * b), correctly rounded: the two-class
    Fowlkes-Mallows score); past that a pair is sqrt(a) * sqrt(b), and
    longer tuples go through log space.
    """
    values = _validate(values)
    for v in values:
        if v == 0:
            return 0.0
    k = len(values)
    if k == 1:
        return values[0]
    if k <= 3:
        product = math.prod(values)
        if _TINY <= product <= _HUGE:
            return math.sqrt(product) if k == 2 else product ** (1.0 / 3.0)
        if k == 2:
            return math.sqrt(values[0]) * math.sqrt(values[1])
    return math.exp(sum(math.log(v) for v in values) / k)


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean; divides each finite entry first where their sum overflows."""
    values = _validate(values)
    total = sum(values)
    if math.isinf(total) and all(map(math.isfinite, values)):
        return sum(v / len(values) for v in values)
    return total / len(values)


def power_mean(values: Sequence[float], p: float) -> float:
    """Power mean with exponent p; accepts +-inf for the max / min limits.

    Any zero entry annihilates the mean for p <= 0 (the limiting value of
    the formula).  The generic branch rescales by the largest (p > 0) or
    smallest (p < 0) entry so intermediate powers stay tame for large |p|,
    and averages r^p - 1 = expm1(p log r) rather than r^p: near p = 0 every
    r^p rounds to 1, and the 1/p-th power of their mean loses every bit.
    """
    if p == 1:
        return arithmetic_mean(values)
    if p == -1:
        return harmonic_mean(values)
    if abs(p) < _TINY:  # 0 or subnormal: the geometric mean to far below an ulp
        return geometric_mean(values)
    values = _validate(values)
    if math.isnan(p):
        raise ValueError("NaN exponent")
    if p == math.inf:
        return max(values)
    if p == -math.inf:
        return min(values)
    k = len(values)
    if p > 0:
        anchor = max(values)
        if anchor == 0.0:
            return 0.0
    else:
        for v in values:
            if v == 0:
                return 0.0
        anchor = min(values)
    total = 0.0
    for v in values:
        ratio = v / anchor
        if ratio == 0:  # r^p - 1 at r = 0, p > 0
            total -= 1.0
        else:  # a ratio past the double range (a subnormal anchor) keeps its log
            log_ratio = math.log(ratio) if ratio < math.inf else math.log(v) - math.log(anchor)
            total += math.expm1(p * log_ratio)
    return anchor * math.exp(math.log1p(total / k) / p)


def _refuse_bool(p: object) -> None:
    # a bool is no exponent, although float() reads it as 0 or 1
    if isinstance(p, _BOOLS):
        raise ValueError(f"exponent must be a number, not the bool {p!r}")


def _check_exponent(p: float) -> None:
    """The rate scores' exponent rule: p <= 1 (-inf allowed), never NaN or a bool.

    Past p = 1 a power mean of rates rewards imbalance between them."""
    if type(p) is not float:  # one-vs-one checks p per pair; a float skips the call
        _refuse_bool(p)
    if math.isnan(p):
        raise ValueError("NaN exponent")
    if p > 1:
        raise ValueError(f"p must be <= 1, got {p}")


def apply_average(spec: AveragingSpec, values: Sequence[float]) -> float:
    """Evaluate the average selected by `spec` on `values`."""
    return power_mean(values, spec.exponent)


def _pair_average(spec: AveragingSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`apply_average(spec, (a, b))` element-wise over rates in [0, 1], in place
    into `a`; `b` is clobbered.  `spec` is HARMONIC (per-class F1) or GEOMETRIC
    (per-class Fowlkes-Mallows and the normalized matrix N).

    Bit for bit the scalar two-element mean, its fallbacks past the double
    range included.  The fallbacks need a positive rate below the smallest
    normal double (harmonic) or below its square root (geometric), and are
    computed only when the smallest positive rate is.
    """
    low = np.minimum(a, b)
    smallest = low.min(where=low > 0, initial=np.inf)
    fix = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec.kind is AverageKind.GEOMETRIC:
            if smallest < _SQRT_TINY:  # sqrt(a) * sqrt(b) where a * b is not normal
                fix = a * b < _TINY
                fixed = np.sqrt(a[fix]) * np.sqrt(b[fix])
            a *= b
            np.sqrt(a, out=a)
        else:  # HARMONIC; a zero rate gives 2/inf = 0, as in the scalar
            if smallest < _TINY:  # low * 2 / (low/a + low/b) where 1/a + 1/b overflows
                fix = np.isinf(1.0 / a + 1.0 / b) & (low > 0)
                low, x, y = low[fix], a[fix], b[fix]
                fixed = low * 2 / (low / x + low / y)
            np.divide(1.0, a, out=a)
            a += np.divide(1.0, b, out=b)
            np.divide(2.0, a, out=a)
    if fix is not None:
        a[fix] = fixed
    return a
