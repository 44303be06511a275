"""Unit tests for the averaging family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gofmetrics.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    AveragingSpec,
    apply_average,
    arithmetic_mean,
    geometric_mean,
    harmonic_mean,
    power_mean,
)

positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonneg_tuples = st.lists(
    st.one_of(st.just(0.0), positive_floats), min_size=1, max_size=6
).map(tuple)
positive_tuples = st.lists(positive_floats, min_size=1, max_size=6).map(tuple)


class TestHarmonic:
    def test_constant_pair(self):
        assert harmonic_mean((1, 1)) == 1

    def test_zero_branch(self):
        assert harmonic_mean((0, 0.7)) == 0.0

    def test_known_value(self):
        # 2 / (1/0.5 + 1/1.0) = 2/3
        assert harmonic_mean((0.5, 1.0)) == pytest.approx(2 / 3, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty tuple"):
            harmonic_mean(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative input"):
            harmonic_mean((0.5, -0.1))

    def test_overflowing_reciprocal(self):
        # 1 / 1e-310 is past the largest double
        assert harmonic_mean((1.0, 1e-310)) == 2e-310
        assert harmonic_mean((1e-310, 1e-310)) == 1e-310
        assert harmonic_mean((1e-308, 1e-308, 1.0)) == pytest.approx(1.5e-308, rel=1e-15)


class TestGeometric:
    def test_constant_pair_exact(self):
        for x in (0.0, 0.3, 1.0, 7.5, 123456.0):
            assert geometric_mean((x, x)) == x

    def test_known_value(self):
        assert geometric_mean((0.25, 1.0)) == 0.5

    def test_zero_annihilates(self):
        assert geometric_mean((2, 0, 5)) == 0.0

    def test_long_tuple_matches_direct_product(self):
        values = (0.2, 0.4, 0.9, 1.5, 2.0)
        direct = math.prod(values) ** (1 / 5)
        assert geometric_mean(values) == pytest.approx(direct, rel=1e-12)

    def test_no_overflow_on_large_inputs(self):
        # direct product of these would overflow float64
        values = (1e200,) * 10
        assert geometric_mean(values) == pytest.approx(1e200, rel=1e-12)

    def test_short_product_off_the_normal_range(self):
        assert geometric_mean((1e-200, 1e-200)) == 1e-200
        assert geometric_mean((1e200, 1e200)) == 1e200
        assert geometric_mean((1e-160, 4e-160)) == 2e-160
        assert geometric_mean((1e120,) * 3) == pytest.approx(1e120, rel=1e-13)
        assert geometric_mean((1e-120,) * 3) == pytest.approx(1e-120, rel=1e-13)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty tuple"):
            geometric_mean(())
        with pytest.raises(ValueError, match="negative input"):
            geometric_mean((1.0, -2.0))


class TestArithmetic:
    def test_known_values(self):
        assert arithmetic_mean((1, 3)) == 2
        assert arithmetic_mean((0.5,)) == 0.5
        assert arithmetic_mean((0.2, 0.4, 0.9)) == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_sum(self):
        assert arithmetic_mean((1e308, 1e308)) == 1e308
        assert arithmetic_mean((1e308, 1e308, 0.0)) == pytest.approx(1e308 / 3 * 2, rel=1e-15)
        assert arithmetic_mean((1e308, math.inf)) == math.inf

    def test_errors(self):
        with pytest.raises(ValueError, match="empty tuple"):
            arithmetic_mean(())
        with pytest.raises(ValueError, match="negative input"):
            arithmetic_mean((-1.0,))


class TestPowerMean:
    def test_collapse_to_named_means(self):
        # the named exponents must dispatch to the named implementations,
        # bit for bit
        values = (0.2, 0.8, 0.5)
        assert power_mean(values, 1) == arithmetic_mean(values)
        assert power_mean(values, -1) == harmonic_mean(values)
        assert power_mean(values, 0) == geometric_mean(values)
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
        g = geometric_mean(values)
        for eps in (1e-6, -1e-6):
            assert power_mean(values, eps) == pytest.approx(g, rel=1e-4)


class TestChainAndSymmetry:
    @given(nonneg_tuples)
    @settings(max_examples=300)
    def test_mean_inequality_chain(self, values):
        scale = max(max(values), 1.0)
        tol = 1e-12 * scale
        h = harmonic_mean(values)
        g = geometric_mean(values)
        a = arithmetic_mean(values)
        assert min(values) <= h + tol
        assert h <= g + tol
        assert g <= a + tol
        assert a <= max(values) + tol

    def test_chain_equality_iff_constant(self):
        h, g, a = (
            harmonic_mean((0.4, 0.4, 0.4)),
            geometric_mean((0.4, 0.4, 0.4)),
            arithmetic_mean((0.4, 0.4, 0.4)),
        )
        assert h == pytest.approx(0.4, rel=1e-12)
        assert g == pytest.approx(0.4, rel=1e-12)
        assert a == pytest.approx(0.4, rel=1e-12)
        # strict on distinct entries
        assert harmonic_mean((0.2, 0.8)) < geometric_mean((0.2, 0.8))
        assert geometric_mean((0.2, 0.8)) < arithmetic_mean((0.2, 0.8))

    @given(nonneg_tuples, st.randoms())
    @settings(max_examples=200)
    def test_permutation_symmetry(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        shuffled = tuple(shuffled)
        scale = max(max(values), 1.0)
        for fn in (harmonic_mean, geometric_mean, arithmetic_mean):
            assert abs(fn(values) - fn(shuffled)) <= 1e-12 * scale
        for p in (-2.0, 0.7):
            assert abs(power_mean(values, p) - power_mean(shuffled, p)) <= 1e-12 * scale


class TestIdempotence:
    @given(positive_floats, st.integers(min_value=1, max_value=6))
    @settings(max_examples=200)
    def test_constant_tuple_returns_x(self, x, k):
        values = (x,) * k
        specs = [HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX,
                 AveragingSpec.power(0.5), AveragingSpec.power(-2.0)]
        for spec in specs:
            assert apply_average(spec, values) == pytest.approx(x, rel=1e-12)

    def test_constant_zero_tuple_exact(self):
        for spec in (HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX, AveragingSpec.power(-3.0)):
            assert apply_average(spec, (0.0, 0.0, 0.0)) == 0.0


class TestAveragingSpec:
    def test_round_trip_strings(self):
        for text in ("harmonic", "geometric", "arithmetic", "min", "max"):
            spec = AveragingSpec.from_string(text)
            assert spec.to_string() == text
            assert spec.name == text

    def test_power_round_trip(self):
        spec = AveragingSpec.from_string("power:0.5")
        assert spec.name == "power:0.5"
        assert spec.exponent == 0.5
        assert AveragingSpec.from_string(spec.to_string()) == spec

    def test_power_negative_exponent(self):
        assert AveragingSpec.from_string("power:-1.5").exponent == -1.5

    def test_one_spelling_per_average(self):
        # however a power spec is built, equal specs serialize identically
        built = (
            AveragingSpec("power:2"),
            AveragingSpec.power(2),
            AveragingSpec.from_string("power:2"),
        )
        assert built[0] == built[1] == built[2]
        assert [spec.to_string() for spec in built] == ["power:2.0"] * 3
        assert AveragingSpec.power(-0.0) == AveragingSpec.power(0.0)
        assert AveragingSpec.power(-0.0).to_string() == "power:0.0"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown averaging spec"):
            AveragingSpec.from_string("median")
        for name in ("power", 2, None, HARMONIC):  # the name is a str
            with pytest.raises(ValueError, match="unknown averaging spec"):
                AveragingSpec(name)

    def test_bad_exponent_text(self):
        with pytest.raises(ValueError, match="bad power exponent"):
            AveragingSpec.from_string("power:abc")

    def test_power_requires_finite_exponent(self):
        with pytest.raises(ValueError, match="finite"):
            AveragingSpec.power(math.inf)
        with pytest.raises(ValueError, match="finite"):
            AveragingSpec.from_string("power:inf")

    def test_power_refuses_a_bool_exponent(self):
        # float() would read True as the exponent 1
        for build in (AveragingSpec.power, lambda p: power_mean((1.0, 2.0), p)):
            for p in (True, False, np.False_):
                with pytest.raises(ValueError, match=f"not the bool {p!r}"):
                    build(p)

    def test_power_one_evaluates_like_arithmetic(self):
        values = (1, 3)
        assert apply_average(AveragingSpec.power(1.0), values) == apply_average(
            ARITHMETIC, values
        )
        assert apply_average(AveragingSpec.power(1.0), values) == 2

    def test_power_minus_one_and_zero_aliases(self):
        values = (0.5, 1.0, 0.25)
        assert apply_average(AveragingSpec.power(-1.0), values) == harmonic_mean(values)
        assert apply_average(AveragingSpec.power(0.0), values) == geometric_mean(values)


class TestApplyAverage:
    def test_dispatch_examples(self):
        assert apply_average(GEOMETRIC, (0.25, 1.0)) == 0.5
        assert apply_average(MIN, (0.2, 0.9)) == 0.2
        assert apply_average(MAX, (0.2, 0.9)) == 0.9

    def test_errors_propagate(self):
        with pytest.raises(ValueError, match="empty tuple"):
            apply_average(ARITHMETIC, ())
        with pytest.raises(ValueError, match="negative input"):
            apply_average(MIN, (-0.1, 0.5))

    @pytest.mark.parametrize(
        "spec", [ARITHMETIC, GEOMETRIC, HARMONIC, MIN, MAX, AveragingSpec.power(0.5)]
    )
    def test_nan_input_rejected(self, spec):
        with pytest.raises(ValueError, match="NaN input"):
            apply_average(spec, (0.5, math.nan))

    def test_numpy_scalars_accepted(self):
        values = tuple(np.float64(v) for v in (0.25, 1.0))
        assert apply_average(GEOMETRIC, values) == 0.5

    def test_numpy_scalars_at_the_range_edge(self):
        # numpy scalars warn where an intermediate leaves the double range;
        # each mean gives them the value and type it gives Python floats
        cases = (
            (harmonic_mean, (1.0, 1e-310)),
            (geometric_mean, (1e200, 1e200)),
            (arithmetic_mean, (1e308, 1e308)),
            (lambda values: power_mean(values, -0.5), (1e-310, 1.0)),
        )
        for mean, values in cases:
            got = mean(tuple(map(np.float64, values)))
            assert type(got) is float and got == mean(values), values
