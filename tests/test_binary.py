"""Unit tests for the two-class rates and scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics.binary import (
    BinaryView,
    f1_binary,
    f1_zero_binary,
    fowlkes_mallows_binary,
    lp_four_rate_score,
    mcc_binary,
    npv,
    precision,
    sensitivity,
    specificity,
)
from gofmetrics.confusion import ConfusionMatrix

cells = st.integers(min_value=0, max_value=500)


def view_from(tp, fn, fp, tn, positive=0):
    cm = ConfusionMatrix.from_counts([[tp, fn], [fp, tn]])
    return BinaryView(cm, positive)


# screening scenario: 1000 sick (990 detected), 49500 healthy (1% misflagged)
CLINIC = dict(tp=990, fn=10, fp=495, tn=49005)


class TestView:
    def test_cell_mapping(self):
        v = view_from(1, 2, 3, 4)
        assert (v.tp, v.fn, v.fp, v.tn) == (1, 2, 3, 4)
        w = view_from(1, 2, 3, 4, positive=1)
        assert (w.tp, w.fn, w.fp, w.tn) == (4, 3, 2, 1)
        # the cells are read once, as Python floats
        assert {type(c) for c in (v.tp, v.fn, v.fp, v.tn, w.tp, w.fn, w.fp, w.tn)} == {float}

    def test_swapped_exchanges_roles(self):
        v = view_from(1, 2, 3, 4)
        s = v.swapped()
        assert (s.tp, s.fn, s.fp, s.tn) == (4, 3, 2, 1)
        assert s.swapped().tp == v.tp
        assert type(s) is BinaryView and type(s.swapped()) is BinaryView
        w = view_from(1, 2, 3, 4, positive=1).swapped()
        assert type(w) is BinaryView
        assert (w.tp, w.fn, w.fp, w.tn) == (1, 2, 3, 4)
        assert {type(c) for c in (s.tp, s.fn, s.fp, s.tn)} == {float}

    def test_needs_two_classes(self):
        cm = ConfusionMatrix.from_counts([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="2x2"):
            BinaryView(cm)

    def test_positive_index_validated(self):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="positive_index"):
            BinaryView(cm, 2)

    @pytest.mark.parametrize("index", [True, False, 1.0, np.float64(0.0)])
    def test_positive_index_that_is_no_integer_refused(self, index):
        # each compares equal to 0 or 1, and is refused rather than read as one
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="positive_index must be 0 or 1"):
            BinaryView(cm, index)

    @pytest.mark.parametrize("index", [np.True_, np.False_, np.float32(1), "1", None])
    def test_positive_index_by_the_relabel_index_rule(self, index):
        # operator.index refuses each, as relabel does; a tuple index would raise TypeError
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="positive_index must be 0 or 1"):
            BinaryView(cm, index)

    def test_numpy_integer_positive_index(self):
        v = BinaryView(ConfusionMatrix.from_counts([[1, 2], [3, 4]]), np.int64(1))
        assert (v.tp, v.fn, v.fp, v.tn) == (4, 3, 2, 1)


class TestRates:
    def test_clinic_scenario(self):
        v = view_from(**CLINIC)
        assert precision(v) == pytest.approx(2 / 3, abs=1e-12)
        assert sensitivity(v) == 0.99
        assert specificity(v) == 0.99
        assert npv(v) == pytest.approx(0.9997959808221973, abs=1e-15)

    def test_specificity_example(self):
        v = view_from(10, 10, 495, 49005)
        assert specificity(v) == 0.99

    def test_zero_denominators(self):
        # never predicts positive: no FP, no TP
        v = view_from(0, 5, 0, 7)
        assert precision(v) == 0.0
        assert sensitivity(v) == 0.0
        assert specificity(v) == 1.0
        # nothing is truly negative
        w = view_from(3, 4, 0, 0)
        assert specificity(w) == 0.0
        assert npv(w) == 0.0


class TestF1Family:
    def test_f1_equals_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 200, size=4))
            if (tp + fn + fp + tn) == 0 or (2 * tp + fp + fn) == 0:
                continue
            v = view_from(tp, fn, fp, tn)
            closed = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
            assert f1_binary(v) == pytest.approx(closed, abs=1e-12)

    def test_f1_zero_is_swapped_f1(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            v = view_from(tp, fn, fp, tn)
            assert f1_zero_binary(v) == f1_binary(v.swapped())

    def test_fowlkes_mallows_dominates_f1(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            tp, fn, fp, tn = (int(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            v = view_from(tp, fn, fp, tn)
            assert f1_binary(v) <= fowlkes_mallows_binary(v) + 1e-12

    def test_clinic_values(self):
        v = view_from(**CLINIC)
        assert f1_binary(v) == pytest.approx(0.7967806841046278, abs=1e-12)
        assert fowlkes_mallows_binary(v) == pytest.approx(
            math.sqrt((2 / 3) * 0.99), rel=1e-12
        )

    def test_fowlkes_mallows_past_the_double_range(self):
        # precision and sensitivity are both 1e-200: their product underflows,
        # their geometric mean does not
        assert fowlkes_mallows_binary(view_from(1e-200, 1, 1, 1)) == 1e-200
        assert fowlkes_mallows_binary(view_from(1e-200, 1e-200, 3e-200, 1)) == pytest.approx(
            math.sqrt(0.25 * 0.5), rel=1e-15
        )

    def test_fowlkes_mallows_is_sqrt_of_the_product_where_it_is_normal(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            tp, fn, fp, tn = (float(x) for x in rng.integers(0, 100, size=4))
            if tp + fn + fp + tn == 0:
                continue
            v = view_from(tp, fn, fp, tn)
            assert fowlkes_mallows_binary(v) == math.sqrt(precision(v) * sensitivity(v))

    def test_perfect_and_empty(self):
        assert f1_binary(view_from(5, 0, 0, 9)) == 1.0
        assert f1_binary(view_from(0, 5, 9, 0)) == 0.0
        assert fowlkes_mallows_binary(view_from(0, 5, 9, 0)) == 0.0


class TestMcc:
    def test_clinic_value(self):
        v = view_from(**CLINIC)
        assert mcc_binary(v) == pytest.approx(0.8081666873480289, abs=1e-12)

    @given(cells, cells, cells, cells)
    @settings(max_examples=300)
    def test_equals_pearson_of_indicators(self, tp, fn, fp, tn):
        if tp + fn + fp + tn == 0:
            return
        counts = [[tp, fn], [fp, tn]]
        v = view_from(tp, fn, fp, tn)
        truth, pred = oracles.expand_labels(counts)
        # label 0 is the positive class; both vectors are 0/1 valued and a
        # constant vector gives r = 0, matching the degenerate convention
        r = oracles.pearson(truth, pred)
        assert mcc_binary(v) == pytest.approx(r, abs=1e-10)

    def test_degenerate_marginals_return_zero(self):
        assert mcc_binary(view_from(0, 0, 3, 5)) == 0.0
        assert mcc_binary(view_from(3, 5, 0, 0)) == 0.0
        assert mcc_binary(view_from(0, 3, 0, 5)) == 0.0

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
            v = view_from(tp, fn, fp, tn)
            assert mcc_binary(v) == mcc_binary(v.swapped())

    def test_extremes(self):
        assert mcc_binary(view_from(7, 0, 0, 3)) == 1.0
        assert mcc_binary(view_from(0, 7, 3, 0)) == -1.0

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
        value = mcc_binary(view_from(tp, fn, fp, tn))
        assert value == pytest.approx(oracles.mcc_exact(tp, fn, fp, tn), abs=1e-12)
        assert value != 0.0

    @given(cells, cells, cells, cells)
    @settings(max_examples=300)
    def test_bounded(self, tp, fn, fp, tn):
        if tp + fn + fp + tn == 0:
            return
        assert abs(mcc_binary(view_from(tp, fn, fp, tn))) <= 1.0


class TestLpFourRate:
    def test_p_one_is_arithmetic_of_rates(self):
        v = view_from(**CLINIC)
        rates = (sensitivity(v), specificity(v), precision(v), npv(v))
        assert lp_four_rate_score(v, 1.0) == sum(rates) / 4

    def test_clinic_harmonic(self):
        v = view_from(**CLINIC)
        assert lp_four_rate_score(v, -1.0) == pytest.approx(
            0.8848762541051134, abs=1e-12
        )

    def test_minus_inf_is_worst_rate(self):
        v = view_from(**CLINIC)
        assert lp_four_rate_score(v, -math.inf) == pytest.approx(2 / 3, abs=1e-12)

    def test_monotone_in_p(self):
        v = view_from(40, 7, 12, 80)
        grid = [-math.inf, -3.0, -1.0, 0.0, 0.5, 1.0]
        vals = [lp_four_rate_score(v, p) for p in grid]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12

    def test_p_above_one_rejected(self):
        v = view_from(1, 1, 1, 1)
        with pytest.raises(ValueError, match="p must be <= 1"):
            lp_four_rate_score(v, 1.5)

    def test_p_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN exponent"):
            lp_four_rate_score(view_from(1, 1, 1, 1), math.nan)

    def test_p_str_rejected(self):
        with pytest.raises(ValueError, match="exponent must be a number, not the str '-1'"):
            lp_four_rate_score(view_from(1, 1, 1, 1), "-1")

    def test_perfect_fit(self):
        assert lp_four_rate_score(view_from(5, 0, 0, 9), -1.0) == 1.0

    def test_zero_rate_annihilates_nonpositive_p(self):
        v = view_from(0, 5, 3, 9)  # precision and sensitivity are 0
        assert lp_four_rate_score(v, -1.0) == 0.0
        assert lp_four_rate_score(v, 0.0) == 0.0
