"""Unit tests for the averaging family."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofmetrics import means
from gofmetrics.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    AveragingSpec,
    power_mean,
)
from gofmetrics.means import _column_means, _power_mean

positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonneg_tuples = st.lists(
    st.one_of(st.just(0.0), positive_floats), min_size=1, max_size=6
).map(tuple)
positive_tuples = st.lists(positive_floats, min_size=1, max_size=6).map(tuple)


class TestHarmonic:
    """The harmonic mean, `power_mean` at p = -1."""

    def test_constant_pair(self):
        assert power_mean((1, 1), -1.0) == 1

    def test_zero_branch(self):
        assert power_mean((0, 0.7), -1.0) == 0.0

    def test_known_value(self):
        # 2 / (1/0.5 + 1/1.0) = 2/3
        assert power_mean((0.5, 1.0), -1.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty tuple"):
            power_mean((), -1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative input"):
            power_mean((0.5, -0.1), -1.0)

    def test_overflowing_reciprocal(self):
        # 1 / 1e-310 is past the largest double
        assert power_mean((1.0, 1e-310), -1.0) == 2e-310
        assert power_mean((1e-310, 1e-310), -1.0) == 1e-310
        assert power_mean((1e-308, 1e-308, 1.0), -1.0) == pytest.approx(1.5e-308, rel=1e-15)


class TestGeometric:
    """The geometric mean, `power_mean` at p = 0."""

    def test_constant_pair_exact(self):
        for x in (0.0, 0.3, 1.0, 7.5, 123456.0):
            assert power_mean((x, x), 0.0) == x

    def test_known_value(self):
        assert power_mean((0.25, 1.0), 0.0) == 0.5

    def test_zero_annihilates(self):
        assert power_mean((2, 0, 5), 0.0) == 0.0

    def test_long_tuple_matches_direct_product(self):
        values = (0.2, 0.4, 0.9, 1.5, 2.0)
        direct = math.prod(values) ** (1 / 5)
        assert power_mean(values, 0.0) == pytest.approx(direct, rel=1e-12)

    def test_no_overflow_on_large_inputs(self):
        # direct product of these would overflow float64
        values = (1e200,) * 10
        assert power_mean(values, 0.0) == pytest.approx(1e200, rel=1e-12)

    def test_short_product_off_the_normal_range(self):
        assert power_mean((1e-200, 1e-200), 0.0) == 1e-200
        assert power_mean((1e200, 1e200), 0.0) == 1e200
        assert power_mean((1e-160, 4e-160), 0.0) == 2e-160
        assert power_mean((1e120,) * 3, 0.0) == pytest.approx(1e120, rel=1e-13)
        assert power_mean((1e-120,) * 3, 0.0) == pytest.approx(1e-120, rel=1e-13)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty tuple"):
            power_mean((), 0.0)
        with pytest.raises(ValueError, match="negative input"):
            power_mean((1.0, -2.0), 0.0)


class TestArithmetic:
    """The arithmetic mean, `power_mean` at p = 1."""

    def test_known_values(self):
        assert power_mean((1, 3), 1.0) == 2
        assert power_mean((0.5,), 1.0) == 0.5
        assert power_mean((0.2, 0.4, 0.9), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_sum(self):
        assert power_mean((1e308, 1e308), 1.0) == 1e308
        assert power_mean((1e308, 1e308, 0.0), 1.0) == pytest.approx(1e308 / 3 * 2, rel=1e-15)
        assert power_mean((1e308, math.inf), 1.0) == math.inf

    def test_sum_is_correctly_rounded(self):
        # math.fsum; the builtin sum reads 3333333333333333.5 before 3.12,
        # and 1e16 + 1.0 + 1.0 there depends on the order of the terms
        for values in ((1e16, 1.0, 1.0), (1.0, 1.0, 1e16)):
            assert power_mean(values, 1.0) == 3333333333333334.0

    def test_largest_double_is_its_own_mean(self):
        # each third of the sum rounds up, so dividing first overflowed
        assert power_mean((sys.float_info.max,) * 3, 1.0) == sys.float_info.max

    def test_errors(self):
        with pytest.raises(ValueError, match="empty tuple"):
            power_mean((), 1.0)
        with pytest.raises(ValueError, match="negative input"):
            power_mean((-1.0,), 1.0)


class TestPowerMean:
    def test_collapse_to_named_means(self):
        # the named exponents take their own branches, bit for bit the
        # arithmetic, harmonic and geometric means' expressions
        values = (0.2, 0.8, 0.5)
        assert power_mean(values, 1) == math.fsum(values) / 3
        assert power_mean(values, -1) == 3 / math.fsum(1 / v for v in values)
        assert power_mean(values, 0) == math.prod(sorted(values)) ** (1 / 3)
        assert power_mean(values, math.inf) == max(values)
        assert power_mean(values, -math.inf) == min(values)

    def test_examples(self):
        assert power_mean((0.2, 0.8), 1) == 0.5
        assert power_mean((0.5, 1.0), -1) == pytest.approx(2 / 3, abs=1e-15)
        assert power_mean((0.25, 1.0), 0) == 0.5

    def test_zero_with_nonpositive_p(self):
        for p in (-math.inf, -2.0, -1.0, -0.5, 0.0):
            assert power_mean((0.0, 0.9), p) == 0.0

    def test_zero_with_positive_p(self):
        # p > 0 keeps zeros from annihilating
        assert power_mean((0.0, 1.0), 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_generic_exponent(self):
        values = (0.3, 0.6)
        expected = ((0.3**0.5 + 0.6**0.5) / 2) ** 2
        assert power_mean(values, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_near_zero_exponent(self):
        # M_p(a, b) = sqrt(ab) * cosh(p h) ** (1/p) with h = log(b / a) / 2,
        # and log cosh(x) = log1p(2 sinh(x / 2)^2) keeps its bits at tiny x.
        # A mean of the r^p themselves, each rounding to 1 near p = 0, read
        # (1, 4) as 4.0 or 1.0; b / a = 1e310 overflows and must not matter
        for a, b in ((1.0, 4.0), (0.3, 0.6), (1e-200, 1.0), (1e-310, 1.0)):
            h = (math.log(b) - math.log(a)) / 2
            for p in (5e-324, -5e-324, 1e-300, 1e-17, -1e-17, 1e-10, -1e-10, 0.01, -0.01):
                cosh_term = math.exp(math.log1p(2 * math.sinh(p * h / 2) ** 2) / p)
                expected = math.sqrt(a) * math.sqrt(b) * cosh_term
                assert power_mean((a, b), p) == pytest.approx(expected, rel=1e-13), (a, p)

    def test_large_exponent_stays_finite(self):
        assert power_mean((3.0, 5.0), 400.0) == pytest.approx(5.0, rel=1e-2)
        assert power_mean((3.0, 5.0), -400.0) == pytest.approx(3.0, rel=1e-2)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            power_mean((1.0, 2.0), math.nan)

    @pytest.mark.parametrize(
        "values",
        [(math.inf, 1.0), (math.inf, math.inf), (math.inf, 0.0), (math.inf, 1.0, 2.0)],
    )
    @pytest.mark.parametrize("p", [math.inf, -math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    def test_infinite_entry_gives_the_limit(self, values, p):
        # the limit as an entry grows without bound: +inf for p >= 0 unless a
        # zero annihilates; for p < 0 the entry adds 0 to the sum of powers
        finite = [v for v in values if v < math.inf]
        if math.isinf(p):
            expected = max(values) if p > 0 else min(values)
        elif p <= 0 and 0.0 in values:
            expected = 0.0
        elif p >= 0 or not finite:
            expected = math.inf
        else:
            expected = (math.fsum(v**p for v in finite) / len(values)) ** (1 / p)
        assert power_mean(values, p) == pytest.approx(expected, rel=1e-12)

    @given(positive_tuples)
    @settings(max_examples=200)
    def test_monotone_in_p(self, values):
        grid = [-math.inf, -3.0, -1.0, -0.4, 0.0, 0.6, 1.0, 2.5, math.inf]
        scale = max(values)
        results = [power_mean(values, p) for p in grid]
        for lo, hi in zip(results, results[1:]):
            assert lo <= hi + 1e-12 * scale

    @given(positive_tuples)
    @settings(max_examples=200)
    def test_continuity_at_zero(self, values):
        g = power_mean(values, 0.0)
        for eps in (1e-6, -1e-6):
            assert power_mean(values, eps) == pytest.approx(g, rel=1e-4)


class TestChainAndSymmetry:
    @given(nonneg_tuples)
    @settings(max_examples=300)
    def test_mean_inequality_chain(self, values):
        scale = max(max(values), 1.0)
        tol = 1e-12 * scale
        h = power_mean(values, -1.0)
        g = power_mean(values, 0.0)
        a = power_mean(values, 1.0)
        assert min(values) <= h + tol
        assert h <= g + tol
        assert g <= a + tol
        assert a <= max(values) + tol

    def test_chain_equality_iff_constant(self):
        h, g, a = (
            power_mean((0.4, 0.4, 0.4), -1.0),
            power_mean((0.4, 0.4, 0.4), 0.0),
            power_mean((0.4, 0.4, 0.4), 1.0),
        )
        assert h == pytest.approx(0.4, rel=1e-12)
        assert g == pytest.approx(0.4, rel=1e-12)
        assert a == pytest.approx(0.4, rel=1e-12)
        # strict on distinct entries
        assert power_mean((0.2, 0.8), -1.0) < power_mean((0.2, 0.8), 0.0)
        assert power_mean((0.2, 0.8), 0.0) < power_mean((0.2, 0.8), 1.0)

    @given(nonneg_tuples, st.randoms())
    @settings(max_examples=200)
    def test_permutation_symmetry(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        shuffled = tuple(shuffled)
        scale = max(max(values), 1.0)
        for p in (-1.0, 0.0, 1.0, -2.0, 0.7):
            assert abs(power_mean(values, p) - power_mean(shuffled, p)) <= 1e-12 * scale


class TestIdempotence:
    @given(positive_floats, st.integers(min_value=1, max_value=6))
    @settings(max_examples=200)
    def test_constant_tuple_returns_x(self, x, k):
        values = (x,) * k
        specs = [HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX,
                 AveragingSpec.power(0.5), AveragingSpec.power(-2.0)]
        for spec in specs:
            assert power_mean(values, spec.exponent) == pytest.approx(x, rel=1e-12)

    def test_constant_zero_tuple_exact(self):
        for spec in (HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX, AveragingSpec.power(-3.0)):
            assert power_mean((0.0, 0.0, 0.0), spec.exponent) == 0.0


class TestAveragingSpec:
    def test_round_trip_strings(self):
        for text in ("harmonic", "geometric", "arithmetic", "min", "max"):
            assert AveragingSpec(text).name == text

    def test_power_round_trip(self):
        spec = AveragingSpec("power:0.5")
        assert spec.name == "power:0.5"
        assert spec.exponent == 0.5
        assert AveragingSpec(spec.name) == spec

    def test_power_negative_exponent(self):
        assert AveragingSpec("power:-1.5").exponent == -1.5

    def test_one_spelling_per_average(self):
        # however a power spec is built, equal specs serialize identically
        built = (AveragingSpec("power:2"), AveragingSpec.power(2))
        assert built[0] == built[1]
        assert [spec.name for spec in built] == ["power:2.0"] * 2
        assert AveragingSpec.power(-0.0) == AveragingSpec.power(0.0)
        assert AveragingSpec.power(-0.0).name == "power:0.0"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown averaging spec"):
            AveragingSpec("median")
        for name in ("power", 2, None, HARMONIC):  # the name is a str
            with pytest.raises(ValueError, match="unknown averaging spec"):
                AveragingSpec(name)

    def test_bad_exponent_text(self):
        with pytest.raises(ValueError, match="bad power exponent"):
            AveragingSpec("power:abc")

    def test_power_requires_finite_exponent(self):
        with pytest.raises(ValueError, match="finite"):
            AveragingSpec.power(math.inf)
        with pytest.raises(ValueError, match="finite"):
            AveragingSpec("power:inf")

    def test_power_refuses_a_bool_exponent(self):
        # float() would read True as the exponent 1
        for build in (AveragingSpec.power, lambda p: power_mean((1.0, 2.0), p)):
            for p in (True, False, np.False_):
                with pytest.raises(ValueError, match=f"not the bool {p!r}"):
                    build(p)

    def test_power_refuses_a_str_exponent(self):
        # float() would read "2" as the exponent 2
        for build in (AveragingSpec.power, lambda p: power_mean((1.0, 2.0), p)):
            with pytest.raises(ValueError, match="exponent must be a number, not the str '2'"):
                build("2")

    def test_power_one_evaluates_like_arithmetic(self):
        values = (1, 3)
        spec = AveragingSpec.power(1.0)
        assert power_mean(values, spec.exponent) == power_mean(values, ARITHMETIC.exponent)
        assert power_mean(values, spec.exponent) == 2

    def test_power_minus_one_and_zero_aliases(self):
        values = (0.5, 1.0, 0.25)
        for p, spec in ((-1.0, HARMONIC), (0.0, GEOMETRIC)):
            assert power_mean(values, AveragingSpec.power(p).exponent) == power_mean(
                values, spec.exponent
            )


class TestApplyAverage:
    """The average a spec selects, `power_mean(values, spec.exponent)`."""

    def test_dispatch_examples(self):
        assert power_mean((0.25, 1.0), GEOMETRIC.exponent) == 0.5
        assert power_mean((0.2, 0.9), MIN.exponent) == 0.2
        assert power_mean((0.2, 0.9), MAX.exponent) == 0.9

    def test_errors_propagate(self):
        with pytest.raises(ValueError, match="empty tuple"):
            power_mean((), ARITHMETIC.exponent)
        with pytest.raises(ValueError, match="negative input"):
            power_mean((-0.1, 0.5), MIN.exponent)

    @pytest.mark.parametrize(
        "spec", [ARITHMETIC, GEOMETRIC, HARMONIC, MIN, MAX, AveragingSpec.power(0.5)]
    )
    def test_nan_input_rejected(self, spec):
        with pytest.raises(ValueError, match="NaN input"):
            power_mean((0.5, math.nan), spec.exponent)

    def test_numpy_scalars_accepted(self):
        values = tuple(np.float64(v) for v in (0.25, 1.0))
        assert power_mean(values, GEOMETRIC.exponent) == 0.5

    def test_numpy_scalars_at_the_range_edge(self):
        # numpy scalars warn where an intermediate leaves the double range;
        # each mean gives them the value and type it gives Python floats
        cases = (
            (-1.0, (1.0, 1e-310)),
            (0.0, (1e200, 1e200)),
            (1.0, (1e308, 1e308)),
            (-0.5, (1e-310, 1.0)),
        )
        for p, values in cases:
            got = power_mean(tuple(map(np.float64, values)), p)
            assert type(got) is float and got == power_mean(values, p), values


_SQRT_TINY = 2.0**-511
# rates at the edges of the whole-array means: subnormals, the smallest normal,
# and 2^-511 (its square root) with the double below it; the product of those
# two is below the smallest normal but rounds up to it, that of the lower one
# with itself rounds to a subnormal
RATES = (
    0.0, 5e-324, 1e-320, 1e-160, _SQRT_TINY, math.nextafter(_SQRT_TINY, 0.0),
    sys.float_info.min, 0.5, 1.0,
)
COLUMN_EXPONENTS = (1.0, -1.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 0.5, -2.0)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestColumnMeans:
    @pytest.mark.parametrize("p", COLUMN_EXPONENTS)
    def test_two_rows_equal_the_scalar_kernel_per_column(self, p):
        pairs = [(x, y) for x in RATES for y in RATES]
        rows = [np.array(row) for row in zip(*pairs)]
        before = _hex(rows)
        got = _column_means(p, *rows)
        assert _hex(got) == _hex([_power_mean(pair, p) for pair in pairs])
        assert _hex(rows) == before  # a new array; the rows are left as they were

    @pytest.mark.parametrize("p", COLUMN_EXPONENTS)
    def test_four_rows_equal_the_scalar_kernel_per_column(self, p):
        rng = np.random.default_rng(19)
        columns = rng.choice(RATES, size=(300, 4)).tolist()
        got = _column_means(p, *np.array(columns).T)
        assert _hex(got) == _hex([_power_mean(column, p) for column in columns])

    def test_square_arrays_keep_their_shape(self):
        rng = np.random.default_rng(20)
        a, b = rng.choice(RATES, size=(2, 9, 9))
        got = _column_means(0.0, a, b)
        assert got.shape == (9, 9)
        expected = [_power_mean(pair, 0.0) for pair in zip(a.ravel().tolist(), b.ravel().tolist())]
        assert _hex(got) == _hex(expected)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_fsum_rows_equal_the_scalar_kernel_per_column(self, k, p):
        rng = np.random.default_rng(23)
        tiny = sys.float_info.min
        edges = [
            [0.0, 5e-324] + [0.5] * (k - 2),  # a zero rate beside an inf reciprocal
            [5e-324] + [0.5] * (k - 1),  # an inf total of positive rates, redone by the scalar
            [1e-320, 1.0] + [0.25] * (k - 2),
        ]
        # rationals a / b: their reciprocals b / a round, and the sums round only as fsum rounds
        rationals = (rng.integers(1, 12, size=(200, k)) / rng.integers(12, 40, size=(200, k))).tolist()
        # reciprocals 2^1022 (past k = 3) and 2^1023 whose sum fsum finds past the doubles
        overflows = [[tiny] * k, [tiny / 2] * k, [0.5] * k]
        for columns in (edges + rationals, overflows):
            got = _column_means(p, *np.array(columns).T)
            assert _hex(got) == _hex([_power_mean(column, p) for column in columns])

    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_fsum_rows_take_the_scalar_kernel_only_where_it_rescales(self, monkeypatch, p):
        redone = []

        def counted(values, q):
            redone.append(list(values))
            return _power_mean(values, q)

        monkeypatch.setattr(means, "_power_mean", counted)
        rng = np.random.default_rng(24)
        rows = rng.integers(1, 12, size=(4, 50)) / rng.integers(12, 40, size=(4, 50))
        _column_means(p, *rows)
        assert redone == []
        rows[:, 7] = [5e-324, 0.5, 0.5, 0.5]
        _column_means(p, *rows)
        assert redone == ([] if p == 1 else [[5e-324, 0.5, 0.5, 0.5]])

    @pytest.mark.parametrize("p", [1.0, -1.0])
    def test_four_rows_take_the_two_row_gate_and_redo_rule(self, monkeypatch, p):
        # at p = -1 a call with a positive rate below 2^-511 redoes the columns whose
        # rates are all positive and whose mean is at most 2^-511; p = 1 redoes none
        edge = 2.0**-511
        columns = [
            [edge] * 4,  # a mean of exactly 2^-511: redone
            [math.nextafter(edge, 0.0), 0.5, 0.5, 0.5],  # fires the gate, a mean near 2^-509: kept
            [5e-324, 0.5, 0.5, 0.5],  # 1/v is inf, so 4/inf = 0, where the scalar rescales: redone
            [0.0, 5e-324, 0.5, 0.5],  # a zero rate: 0.0, kept
            [0.25, 0.5, 0.75, 1.0],
        ]
        # 1/0 is inf, and fsum still raises on 2^1023 + 2^1023: every column is mapped
        overflow = [0.0, 2.0**-1023, 2.0**-1023, 0.5]
        redone = []

        def counted(values, q):
            redone.append(list(values))
            return _power_mean(values, q)

        monkeypatch.setattr(means, "_power_mean", counted)
        for call, mapped in ((columns, [columns[0], columns[2]]), (columns + [overflow], None)):
            redone.clear()
            got = _column_means(p, *np.array(call).T)
            assert got.tolist() == [_power_mean(column, p) for column in call]
            if p == 1:
                assert redone == []
            else:
                assert redone == (call if mapped is None else mapped)
