"""Unit tests for the two-class rates and scores, through `two_class_score`."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics.confusion import ConfusionMatrix, relabel
from gofmetrics.multiclass import BINARY_METRIC_NAMES, METRICS, two_class_score

cells = st.integers(min_value=0, max_value=500)


def table(tp, fn, fp, tn):
    return ConfusionMatrix.from_counts([[tp, fn], [fp, tn]])


def score(metric, tp, fn, fp, tn, positive=0, p=None):
    return two_class_score(table(tp, fn, fp, tn), metric, positive, p)


def exponents(metric):
    # the p values a metric is scored at: none, or a spread of exponents <= 1
    if METRICS["one_vs_one_" + metric].needs_p:
        return (1.0, 0.0, -1.0, -math.inf, 0.5, -2.0)
    return (None,)


# screening scenario: 1000 sick (990 detected), 49500 healthy (1% misflagged)
CLINIC = dict(tp=990, fn=10, fp=495, tn=49005)


class TestView:
    # which class of the 2x2 table is positive
    def test_cell_mapping(self):
        # class 0 positive reads tp, fn, fp, tn = 1, 2, 3, 4; class 1 reads 4, 3, 2, 1
        assert score("sensitivity", 1, 2, 3, 4) == 1 / 3
        assert score("precision", 1, 2, 3, 4) == 1 / 4
        assert score("specificity", 1, 2, 3, 4) == 4 / 7
        assert score("npv", 1, 2, 3, 4) == 4 / 6
        assert score("sensitivity", 1, 2, 3, 4, positive=1) == 4 / 7
        assert score("precision", 1, 2, 3, 4, positive=1) == 4 / 6
        assert score("specificity", 1, 2, 3, 4, positive=1) == 1 / 3
        assert score("npv", 1, 2, 3, 4, positive=1) == 1 / 4
        # the scores are Python floats
        for metric in BINARY_METRIC_NAMES:
            for positive in (0, 1):
                for p in exponents(metric):
                    assert type(score(metric, 1, 2, 3, 4, positive, p)) is float, (metric, p)

    def test_swapped_exchanges_roles(self):
        # making the other class positive exchanges sensitivity with specificity
        # and precision with npv; swapping twice gives back the table
        cm = table(1, 2, 3, 4)
        for a, b in (("sensitivity", "specificity"), ("precision", "npv")):
            assert two_class_score(cm, a, 1) == two_class_score(cm, b, 0)
            assert two_class_score(cm, b, 1) == two_class_score(cm, a, 0)
        twice = relabel(relabel(cm, [1, 0]), [1, 0])
        assert np.array_equal(twice.counts, cm.counts)
        for metric in BINARY_METRIC_NAMES:
            for positive in (0, 1):
                for p in exponents(metric):
                    assert two_class_score(twice, metric, positive, p) == two_class_score(
                        cm, metric, positive, p
                    ), (metric, positive, p)

    def test_other_class_positive_is_the_relabeled_table(self):
        # class 1 positive reads the table with its classes swapped, bit for bit
        rng = np.random.default_rng(16)
        grids = [rng.integers(0, 100, size=4).tolist() for _ in range(100)]
        grids += [[1, 2, 3, 4], [0, 5, 0, 7], [3, 4, 0, 0], [1e-320, 0, 3, 5e-324], [1e300, 1, 1e17, 0]]
        for tp, fn, fp, tn in grids:
            if tp + fn + fp + tn == 0:
                continue
            cm = table(tp, fn, fp, tn)
            swapped = relabel(cm, [1, 0])
            for metric in BINARY_METRIC_NAMES:
                for p in exponents(metric):
                    assert two_class_score(cm, metric, 1, p) == two_class_score(
                        swapped, metric, 0, p
                    ), (tp, fn, fp, tn, metric, p)

    def test_needs_two_classes(self):
        cm = ConfusionMatrix.from_counts([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="2x2"):
            two_class_score(cm, "f1")

    def test_positive_index_validated(self):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="positive_index"):
            two_class_score(cm, "f1", 2)

    @pytest.mark.parametrize("index", [True, False, 1.0, np.float64(0.0)])
    def test_positive_index_that_is_no_integer_refused(self, index):
        # each compares equal to 0 or 1, and is refused rather than read as one
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="positive_index must be 0 or 1"):
            two_class_score(cm, "f1", index)

    @pytest.mark.parametrize("index", [np.True_, np.False_, np.float32(1), "1", None])
    def test_positive_index_by_the_relabel_index_rule(self, index):
        # operator.index refuses each, as relabel does; a tuple index would raise TypeError
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="positive_index must be 0 or 1"):
            two_class_score(cm, "f1", index)

    @pytest.mark.parametrize("index", [True, np.True_, 1.0])
    def test_refused_positive_index_is_named_by_type_and_value(self, index):
        # each equals 1, so "must be 0 or 1" alone cannot say what is wrong
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        refusal = f"positive_index must be 0 or 1, not the {type(index).__name__} {index!r}"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            two_class_score(cm, "f1", index)

    def test_numpy_integer_positive_index(self):
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        swapped = relabel(cm, [1, 0])
        for metric in BINARY_METRIC_NAMES:
            for p in exponents(metric):
                assert two_class_score(cm, metric, np.int64(1), p) == two_class_score(
                    swapped, metric, 0, p
                ), (metric, p)


class TestRates:
    def test_clinic_scenario(self):
        cm = table(**CLINIC)
        assert two_class_score(cm, "precision") == pytest.approx(2 / 3, abs=1e-12)
        assert two_class_score(cm, "sensitivity") == 0.99
        assert two_class_score(cm, "specificity") == 0.99
        assert two_class_score(cm, "npv") == pytest.approx(0.9997959808221973, abs=1e-15)

    def test_specificity_example(self):
        assert score("specificity", 10, 10, 495, 49005) == 0.99

    def test_zero_denominators(self):
        # never predicts positive: no FP, no TP
        cm = table(0, 5, 0, 7)
        assert two_class_score(cm, "precision") == 0.0
        assert two_class_score(cm, "sensitivity") == 0.0
        assert two_class_score(cm, "specificity") == 1.0
        # nothing is truly negative
        cm = table(3, 4, 0, 0)
        assert two_class_score(cm, "specificity") == 0.0
        assert two_class_score(cm, "npv") == 0.0


class TestF1Family:
    def test_f1_equals_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 200, size=4))
            if (tp + fn + fp + tn) == 0 or (2 * tp + fp + fn) == 0:
                continue
            closed = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
            assert score("f1", tp, fn, fp, tn) == pytest.approx(closed, abs=1e-12)

    def test_f1_zero_is_swapped_f1(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            cm = table(tp, fn, fp, tn)
            assert two_class_score(cm, "f1_zero") == two_class_score(cm, "f1", 1)

    def test_fowlkes_mallows_dominates_f1(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            cm = table(tp, fn, fp, tn)
            assert two_class_score(cm, "f1") <= two_class_score(cm, "fowlkes_mallows") + 1e-12

    def test_clinic_values(self):
        cm = table(**CLINIC)
        assert two_class_score(cm, "f1") == pytest.approx(0.7967806841046278, abs=1e-12)
        assert two_class_score(cm, "fowlkes_mallows") == pytest.approx(
            math.sqrt((2 / 3) * 0.99), rel=1e-12
        )

    def test_fowlkes_mallows_past_the_double_range(self):
        # precision and sensitivity are both 1e-200: their product underflows,
        # their geometric mean does not
        assert score("fowlkes_mallows", 1e-200, 1, 1, 1) == 1e-200
        assert score("fowlkes_mallows", 1e-200, 1e-200, 3e-200, 1) == pytest.approx(
            math.sqrt(0.25 * 0.5), rel=1e-15
        )

    def test_fowlkes_mallows_is_sqrt_of_the_product_where_it_is_normal(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            tp, fn, fp, tn = (float(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            cm = table(tp, fn, fp, tn)
            product = two_class_score(cm, "precision") * two_class_score(cm, "sensitivity")
            assert two_class_score(cm, "fowlkes_mallows") == math.sqrt(product)

    def test_perfect_and_empty(self):
        assert score("f1", 5, 0, 0, 9) == 1.0
        assert score("f1", 0, 5, 9, 0) == 0.0
        assert score("fowlkes_mallows", 0, 5, 9, 0) == 0.0


class TestMcc:
    def test_clinic_value(self):
        assert score("mcc", **CLINIC) == pytest.approx(0.8081666873480289, abs=1e-12)

    @given(cells, cells, cells, cells)
    @settings(max_examples=300)
    def test_equals_pearson_of_indicators(self, tp, fn, fp, tn):
        if tp + fn + fp + tn == 0:
            return
        counts = [[tp, fn], [fp, tn]]
        truth, pred = oracles.expand_labels(counts)
        # label 0 is the positive class; both vectors are 0/1 valued and a
        # constant vector gives r = 0, matching the degenerate convention
        r = oracles.pearson(truth, pred)
        assert score("mcc", tp, fn, fp, tn) == pytest.approx(r, abs=1e-10)

    def test_degenerate_marginals_return_zero(self):
        assert score("mcc", 0, 0, 3, 5) == 0.0
        assert score("mcc", 3, 5, 0, 0) == 0.0
        assert score("mcc", 0, 3, 0, 5) == 0.0

    def test_swap_invariance(self):
        # bit for bit, also on large scaled counts
        rng = np.random.default_rng(14)
        draws = [rng.integers(0, 100, size=4) for _ in range(200)]
        draws += [rng.integers(0, 1000, size=4) * 1e7 for _ in range(200)]
        draws += [(7.29e9, 6.32e9, 5.43e9, 5.59e9)]
        for cells in draws:
            tp, fn, fp, tn = (float(x) for x in cells)
            if tp + fn + fp + tn == 0:
                continue
            cm = table(tp, fn, fp, tn)
            assert two_class_score(cm, "mcc") == two_class_score(cm, "mcc", 1)

    def test_extremes(self):
        assert score("mcc", 7, 0, 0, 3) == 1.0
        assert score("mcc", 0, 7, 3, 0) == -1.0

    @pytest.mark.parametrize(
        "tp, fn, fp, tn",
        [
            (1e-320, 0, 0, 3),
            (5e-324, 0, 0, 3),
            (0, 1e-320, 3, 0),
            (1e-320, 2e-320, 1e-320, 3),
            (1e-200, 0, 1e-200, 1e300),
        ],
    )
    def test_counts_of_very_different_size(self, tp, fn, fp, tn):
        # the product of the four marginals underflows, the score does not
        value = score("mcc", tp, fn, fp, tn)
        assert value == pytest.approx(oracles.mcc_exact(tp, fn, fp, tn), abs=1e-12)
        assert value != 0.0

    @given(cells, cells, cells, cells)
    @settings(max_examples=300)
    def test_bounded(self, tp, fn, fp, tn):
        if tp + fn + fp + tn == 0:
            return
        assert abs(score("mcc", tp, fn, fp, tn)) <= 1.0


class TestLpFourRate:
    def test_p_one_is_arithmetic_of_rates(self):
        cm = table(**CLINIC)
        rates = [two_class_score(cm, m) for m in ("sensitivity", "specificity", "precision", "npv")]
        assert two_class_score(cm, "lp_four_rate", p=1.0) == sum(rates) / 4

    def test_clinic_harmonic(self):
        assert score("lp_four_rate", **CLINIC, p=-1.0) == pytest.approx(
            0.8848762541051134, abs=1e-12
        )

    def test_minus_inf_is_worst_rate(self):
        assert score("lp_four_rate", **CLINIC, p=-math.inf) == pytest.approx(2 / 3, abs=1e-12)

    def test_monotone_in_p(self):
        cm = table(40, 7, 12, 80)
        grid = [-math.inf, -3.0, -1.0, 0.0, 0.5, 1.0]
        vals = [two_class_score(cm, "lp_four_rate", p=p) for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError, match="p must be <= 1"):
            score("lp_four_rate", 1, 1, 1, 1, p=1.5)

    def test_p_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN exponent"):
            score("lp_four_rate", 1, 1, 1, 1, p=math.nan)

    def test_p_str_rejected(self):
        with pytest.raises(ValueError, match="exponent must be a number, not the str '-1'"):
            score("lp_four_rate", 1, 1, 1, 1, p="-1")

    def test_perfect_fit(self):
        assert score("lp_four_rate", 5, 0, 0, 9, p=-1.0) == 1.0

    def test_zero_rate_annihilates_nonpositive_p(self):
        cm = table(0, 5, 3, 9)  # precision and sensitivity are 0
        assert two_class_score(cm, "lp_four_rate", p=-1.0) == 0.0
        assert two_class_score(cm, "lp_four_rate", p=0.0) == 0.0


# cells at and past the edges of the double range: subnormal, at the scalar
# means' 2^-511 fallback threshold, and large
EDGE_CELLS = (0.0, 5e-324, 1e-320, 1e-310, 2.0**-511, 1e17, 1e300)


def _sweep_tables():
    rng = np.random.default_rng(2121)
    for _ in range(1500):
        yield rng.integers(0, 60, size=4).astype(float)
    for _ in range(1500):
        yield rng.choice(EDGE_CELLS, size=4)


class TestOracleSweep:
    def test_equals_scalar_formulas(self):
        # both orientations of every metric, bit for bit the pair loop's
        # scalar two-class formulas
        checked = 0
        for cells in _sweep_tables():
            if not cells.any():
                continue
            cm = table(*cells.tolist())
            views = (oracles.TwoByTwo.of(cm), oracles.TwoByTwo.of(cm).swapped())
            for metric in BINARY_METRIC_NAMES:
                formula = oracles.TWO_CLASS[metric]
                for p in exponents(metric):
                    for positive, view in enumerate(views):
                        expected = formula(view) if p is None else formula(view, p)
                        value = two_class_score(cm, metric, positive, p)
                        assert value == expected, (cells.tolist(), metric, positive, p)
                        checked += 1
        assert checked > 80000
