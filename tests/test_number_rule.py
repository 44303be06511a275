"""The one number rule, `means._no_number`, at every entry that takes a caller's number."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from gofmetrics.confusion import ConfusionMatrix, smooth
from gofmetrics.means import AveragingSpec, power_mean
from gofmetrics.multiclass import METRICS, evaluate_metric, lp_multiclass, two_class_score

GRID3 = [[20, 6, 0], [2, 20, 0], [12, 12, 8]]
CM3 = ConfusionMatrix.from_counts(GRID3)
CM2 = ConfusionMatrix.from_counts([[5, 1], [2, 4]])

# each has __float__ or __index__ and is still no number, or has neither
NON_NUMBERS = [
    None, b"1", 1j, np.complex128(1), "2", True, np.True_, [1], {}, object(),
    np.array([1.0, 2.0]), np.datetime64("2020-01-01"), np.timedelta64(5, "s"),
]

EXPONENT_ENTRIES = {
    "power_mean": lambda p: power_mean((1.0, 2.0), p),
    "AveragingSpec.power": AveragingSpec.power,
    "lp_multiclass": lambda p: lp_multiclass(CM3, p),
    # the lp_four_rate score of one 2x2 table
    "lp_four_rate_score": lambda p: two_class_score(CM2, "lp_four_rate", p=p),
    "evaluate_metric lp_multiclass": lambda p: evaluate_metric(CM3, "lp_multiclass", p=p),
    "evaluate_metric one_vs_one_lp_four_rate": lambda p: evaluate_metric(
        CM3, "one_vs_one_lp_four_rate", p=p
    ),
}

VALUE_ENTRIES = {
    "power_mean value": lambda x: power_mean((x, 1.0), 1.0),
    "from_counts cell": lambda x: ConfusionMatrix.from_counts([[1, x], [0, 1]]),
    "from_pair_counts count": lambda x: ConfusionMatrix.from_pair_counts(
        {("a", "a"): 1, ("a", "b"): x}
    ),
    "smooth alpha": lambda x: smooth(CM3, x),
}


ENTRIES = {**EXPONENT_ENTRIES, **VALUE_ENTRIES}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("value", NON_NUMBERS, ids=lambda v: type(v).__name__)
def test_non_number_refused_by_name(name, value):
    with pytest.raises(ValueError) as info:
        ENTRIES[name](value)
    if value is None and (name.startswith("evaluate_metric") or name == "lp_four_rate_score"):
        # evaluate_metric and two_class_score read p=None as no p given, and
        # name the option
        assert "needs p" in str(info.value)
    else:
        assert repr(value) in str(info.value)


@pytest.mark.parametrize("name", EXPONENT_ENTRIES)
@pytest.mark.parametrize("p", [Decimal("0.5"), Fraction(1, 2)], ids=repr)
def test_decimal_and_fraction_exponents_read_as_their_float(name, p):
    entry = EXPONENT_ENTRIES[name]
    assert entry(p) == entry(0.5)


def test_exponent_past_the_double_range_reads_as_infinity():
    values = (1.0, 2.0, 3.0)
    assert power_mean(values, 10**400) == max(values)
    assert power_mean(values, -(10**400)) == min(values)
    assert power_mean(values, Fraction(-(10**400))) == min(values)
    assert lp_multiclass(CM3, -(10**400)) == lp_multiclass(CM3, -math.inf)
    assert two_class_score(CM2, "lp_four_rate", p=-(10**400)) == two_class_score(
        CM2, "lp_four_rate", p=-math.inf
    )
    score = evaluate_metric(CM3, "lp_multiclass", p=-(10**400))
    assert score.parameters == {"p": "-inf"}
    assert score.value == lp_multiclass(CM3, -math.inf)
    with pytest.raises(ValueError, match="p must be <= 1"):
        lp_multiclass(CM3, 10**400)
    with pytest.raises(ValueError, match="finite; use min or max"):
        AveragingSpec.power(10**400)


def test_mean_value_past_the_double_range_refused():
    with pytest.raises(ValueError) as info:
        power_mean((1.0, 10**400), 1.0)
    assert str(info.value) == "value 1 is past the double range"
    # a negative one is negative first
    with pytest.raises(ValueError, match="negative input"):
        power_mean((Fraction(-(10**400)), 1.0), 1.0)


def test_numbers_that_are_not_floats_still_read():
    assert power_mean((Fraction(1, 2), Decimal("0.5"), np.float32(0.5), 1), 1.0) == 0.625
    assert AveragingSpec.power(np.int64(2)) == AveragingSpec.power(2.0)


def test_nan_exponent_refused_by_every_spelling():
    for p in (math.nan, np.float32("nan"), Decimal("NaN"), Decimal("sNaN"), Decimal("-sNaN")):
        for entry in EXPONENT_ENTRIES.values():
            with pytest.raises(ValueError, match="NaN exponent"):
                entry(p)


@pytest.mark.parametrize("nan", [math.nan, Decimal("NaN"), Decimal("sNaN")], ids=repr)
def test_signalling_nan_value_reads_as_nan(nan):
    # float() and comparisons refuse a signalling NaN; each door reads it as NaN
    # and gives its NaN message
    with pytest.raises(ValueError, match="NaN input"):
        power_mean((nan, 1.0), 1.0)
    with pytest.raises(ValueError, match="non-finite cell at row 0, column 1"):
        ConfusionMatrix.from_counts([[1, nan], [0, 1]])
    with pytest.raises(ValueError, match="non-finite cell at row 0, column 1"):
        ConfusionMatrix.from_pair_counts({("a", "a"): 1, ("a", "b"): nan})
    with pytest.raises(ValueError, match="alpha must be finite"):
        smooth(CM3, nan)


def test_negative_zero_cell_is_zero():
    # a -0.0 cell is stored as 0.0, so no rate or mean of rates sees a signed
    # zero: a harmonic mean of -0.0 and 0.0 would read NaN
    grids = (
        [[-0.0, 0], [1, 1]],
        [[-0.0, 1], [1, -0.0]],
        [[5, -0.0, 1], [-0.0, 0, 2], [1, 3, -0.0]],
    )
    for grid in grids:
        cm = ConfusionMatrix.from_counts(grid)
        assert not np.signbit(cm.counts).any()
        zeros = ConfusionMatrix.from_counts(np.abs(np.array(grid, dtype=float)))
        for name, info in METRICS.items():
            p = -1.0 if info.needs_p else None
            value = evaluate_metric(cm, name, p=p).value
            assert value == evaluate_metric(zeros, name, p=p).value, (grid, name)
            assert math.copysign(1.0, value) == 1.0 or value < 0, (grid, name)
