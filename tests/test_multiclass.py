"""Unit tests for the multi-class scores."""

import importlib.util
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics import means, multiclass
from gofmetrics.confusion import (
    ConfusionMatrix,
    normalized_matrix,
    relabel,
    smooth,
    transpose,
)
from gofmetrics.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    AveragingSpec,
    power_mean,
)
from gofmetrics.multiclass import (
    BINARY_METRIC_NAMES,
    METRICS,
    cramers_phi,
    evaluate_metric,
    generalized_f1,
    generalized_fm,
    generalized_mcc,
    lp_multiclass,
    one_vs_one_average,
    perfect_fit_permutation,
    two_class_score,
)
from helpers import (
    pair_mean_tables,
    random_counts,
    random_counts_with_empty_classes,
    random_matrix,
    random_permutation_counts,
    random_positive_marginal_counts,
    strongly_diagonal_counts,
)

GRID3 = [[20, 6, 0], [2, 20, 0], [12, 12, 8]]
GRID3B = [[5, 6, 2], [2, 8, 11], [8, 2, 10]]
CM2 = ConfusionMatrix.from_counts([[7, 2], [3, 5]])


def cm_of(grid, labels=None):
    return ConfusionMatrix.from_counts(grid, labels)


def witness_parity(mapping):
    # parity by counting inversions, apart from the cycle count the package uses
    mapping = np.asarray(mapping)
    inversions = np.triu(mapping[:, None] > mapping[None, :]).sum()
    return "even" if inversions % 2 == 0 else "odd"


def harmonic_list(values):
    # reference outer for the oracle helpers, which take callables
    if any(v == 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


class TestGeneralizedMcc:
    def test_three_class_example(self):
        # frozen from the cofactor-expansion oracle; exact symbolic value
        # is 97*sqrt(46189)/92378
        assert generalized_mcc(cm_of(GRID3)) == pytest.approx(
            0.22566928801238004, abs=1e-12
        )

    def test_second_example(self):
        assert generalized_mcc(cm_of(GRID3B)) == pytest.approx(
            0.10528390344127043, abs=1e-12
        )

    def test_identity_is_exactly_one(self):
        for n in (2, 3, 4, 6):
            assert generalized_mcc(cm_of(np.identity(n))) == 1.0

    def test_positive_diagonal_is_exactly_one(self):
        assert generalized_mcc(cm_of([[7, 0, 0], [0, 3, 0], [0, 0, 11]])) == 1.0

    def test_cyclic_permutation_is_exactly_one(self):
        assert generalized_mcc(cm_of([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == 1.0

    def test_anti_diagonal_is_minus_one(self):
        assert generalized_mcc(cm_of([[0, 3], [5, 0]])) == -1.0

    @pytest.mark.parametrize(
        "grid, expected",
        [([[0, 5e-324], [1, 0]], -1.0), ([[0, 0, 1e-310], [1, 0, 0], [0, 1, 0]], 1.0)],
    )
    def test_permutation_whose_lu_flushes_a_subnormal_pivot(self, grid, expected):
        # slogdet reads log|det C| as -inf, with a divide-by-zero warning; the
        # witness still decides the score
        assert generalized_mcc(cm_of(grid)) == expected

    def test_agrees_with_cofactor_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            cm = random_matrix(rng, n)
            ref = oracles.det_cofactor(normalized_matrix(cm).tolist())
            assert generalized_mcc(cm) == pytest.approx(ref, abs=1e-10)

    def test_two_class_collapse_to_binary_mcc(self):
        rng = np.random.default_rng(22)
        for _ in range(400):
            grid = random_counts(rng, 2)
            cm = cm_of(grid)
            assert generalized_mcc(cm) == pytest.approx(
                two_class_score(cm, "mcc"), abs=1e-10
            )

    def test_two_class_is_the_two_class_mcc_bit_for_bit(self):
        # integer cells, rank-1 tables and edge cells; two_class_score reads +-1
        # without a witness where the true score rounds to 1, and generalized_mcc
        # keeps such a table inside (-1, 1)
        rng = np.random.default_rng(24)
        grids = [rng.integers(0, 50, (2, 2)) for _ in range(2000)]
        grids += [np.outer(rng.integers(0, 50, 2), rng.integers(0, 50, 2)) for _ in range(1000)]
        edges = (0.0, 5e-324, 1e-310, 1.0, 7.0, 1e17, 1e300)
        grids += [rng.choice(edges, (2, 2)) for _ in range(2000)]
        grids += [[[3, 5], [6, 10]], [[1e17, 1], [0, 1e17]], [[1e17, 0], [1, 1e17]]]
        # scores far below 1e-154: the LU flushed the subnormal pivot of the
        # first, the product of four normal rates underflows in the second, and
        # a rate underflows in the third.  Each is held within 4 eps of its
        # size; 0.81 eps is the largest error seen
        tiny = [[[0, 1e-310], [1, 1]], [[33, 1e300], [0, 37]], [[1e300, 5e-324], [1e300, 1e-310]]]
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, grid in enumerate(grids + tiny):
                if not np.any(grid):
                    continue
                cm = cm_of(grid)
                value = generalized_mcc(cm)
                exact = oracles.mcc_exact(*cm.counts.ravel())
                worst = max(worst, abs(value - exact))
                if k >= len(grids):
                    assert abs(value - exact) <= 4 * 2.0**-52 * abs(exact), grid
                expected = two_class_score(cm, "mcc")
                if abs(expected) == 1 and perfect_fit_permutation(cm) is None:
                    expected = math.copysign(1 - 2.0**-53, expected)
                assert value.hex() == expected.hex(), grid
                (a, b), (c, d) = grid
                if isinstance(a, np.integer) and a * d == b * c:  # an integer rank-1 table
                    assert value.hex() == "0x0.0p+0", grid
        # the rates' four roundings, three products, a root and the difference of
        # two roots: 4 eps is the stated bound, 1 eps the largest error seen here
        assert worst <= 4 * 2.0**-52, worst

    def test_every_mcc_door_is_within_4_eps_of_the_larger_exact_term(self):
        # each pair value of one-vs-one mcc, and of two_class_score with either
        # class positive and generalized_mcc on the pair's 2x2 sub-table, against
        # `oracles.mcc_exact`, in units of eps times the larger exact term (at
        # least 2^-1074): four rates, three products, a root and a difference.
        # Cells at the edges of the double range, mixed with integers, and sweep
        # tables 212 and 75 of `tools/score_sweep.py`.  4 eps is the stated
        # bound, 2.35 eps the largest error seen here (3.23 eps over 99,117 pairs of
        # 20,000 such tables)
        rng = np.random.default_rng(31)
        edges = (0.0, 5e-324, 1e-320, 1e-310, 2.0**-1022, 2.0**-511, 1e-200, 1, 7, 1e17, 1e300)
        grids = [[[1e300, 5e-324], [1e300, 1e-310]], [[20, 34], [5e-324, 10]]]
        for _ in range(250):
            n = int(rng.integers(2, 6))
            integers = rng.integers(0, 50, (n, n))
            grids.append(np.where(rng.random((n, n)) < rng.random(), integers, rng.choice(edges, (n, n))))
        pair_mcc = METRICS["one_vs_one_mcc"].func
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in grids:
                if not np.any(grid):
                    continue
                cm = cm_of(grid)
                pairs = itertools.combinations(range(cm.n), 2)
                for pair, value in zip(pairs, pair_mcc(cm).tolist()):
                    sub = cm.counts[np.ix_(pair, pair)]
                    cells = sub.ravel().tolist()
                    exact = oracles.mcc_exact(*cells)
                    unit = max(2.0**-52 * max(oracles.mcc_terms_exact(*cells)), 2.0**-1074)
                    doors = [value]
                    if sub.any():
                        two = cm_of(sub)
                        doors += [two_class_score(two, "mcc", k) for k in (0, 1)]
                        doors.append(generalized_mcc(two))
                    for door in doors:
                        assert abs(door - exact) <= 4 * unit, (cells, door, exact)

    @pytest.mark.parametrize("k", [250, 254, 255, 480, 506, 511, 512, 520, 600])
    def test_count_fallback_where_counts_are_far_apart(self, k):
        # TPR and NPV are about 2^-k, so the MCC is about 2^-2k, and below the
        # normal range from k = 512 on, where the counts lie 2^k apart: past the
        # 2^254 within which `_mcc` skips its count fallback.  Each door, and one-vs-one
        # on a 3x3 table holding the pair, is within 4 eps of the exact value
        rng = np.random.default_rng(k)
        for _ in range(10):
            a, b, d = (2 * rng.integers(1, 1000, 3) + 1).tolist()
            grid = [[a, b * 2.0**k], [0, d]]
            exact = oracles.mcc_exact(a, b * 2.0**k, 0, d)
            cm = cm_of(grid)
            wide = cm_of([[a, b * 2.0**k, 0], [0, d, 0], [0, 0, 1]])
            doors = [two_class_score(cm, "mcc", k) for k in (0, 1)]
            doors += [generalized_mcc(cm), METRICS["one_vs_one_mcc"].func(wide)[0]]
            for door in doors:
                assert abs(door - exact) <= 4 * 2.0**-52 * exact, (grid, door, exact)

    def test_zero_column_forces_exact_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            grid = random_counts(rng, 3)
            wide = np.zeros((4, 4))
            wide[:3, :3] = grid
            wide[3, 0] = float(rng.integers(1, 10))  # class 3 exists, never predicted
            assert generalized_mcc(cm_of(wide)) == 0.0

    @pytest.mark.parametrize("excess", [0.5, 800.0])
    def test_bound_violation_raises(self, monkeypatch, excess):
        # an explicit check, not an assert, so it also holds under python -O; at
        # 800 nats the bound is told on the log, since exp(800) overflows
        cm = cm_of(GRID3)
        # log|det C| such that log|det N| = excess once the marginals are taken off
        marginals = 0.5 * (np.log(cm.row_sums).sum() + np.log(cm.col_sums).sum())
        monkeypatch.setattr(np.linalg, "slogdet", lambda m: (1.0, marginals + excess))
        with pytest.raises(ArithmeticError, match="outside"):
            generalized_mcc(cm)

    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_large_n_missing_class_is_exact_zero(self, n):
        rng = np.random.default_rng(n)
        counts = strongly_diagonal_counts(rng, n)
        never_predicted = counts.copy()
        never_predicted[:, n // 2] = 0.0
        never_present = counts.copy()
        never_present[n // 3, :] = 0.0
        assert generalized_mcc(cm_of(never_predicted)) == 0.0
        assert generalized_mcc(cm_of(never_present)) == 0.0

    def test_large_n_strongly_diagonal_matches_slogdet(self):
        # log|det| is about -627 (6e-273): tiny, but a normal double
        counts = strongly_diagonal_counts(np.random.default_rng(200), 200)
        sign, logdet = np.linalg.slogdet(oracles.ratio_matrix(counts))
        expected = float(sign) * math.exp(logdet)
        assert expected != 0.0
        assert generalized_mcc(cm_of(counts)) == pytest.approx(expected, rel=1e-6, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        diagonal=st.sampled_from([0, 5, 50]),
        empty_classes=st.booleans(),
    )
    def test_matches_slogdet_of_ratio_matrix(self, n, seed, diagonal, empty_classes):
        rng = np.random.default_rng(seed)
        make = random_counts_with_empty_classes if empty_classes else random_counts
        counts = make(rng, n, high=5)
        counts[np.diag_indices(n)] += diagonal * (counts.sum(axis=1) > 0)
        sign, logdet = np.linalg.slogdet(oracles.ratio_matrix(counts))
        expected = float(sign) * math.exp(logdet)
        value = generalized_mcc(cm_of(counts))
        if abs(expected) >= 1e-8:
            assert value == pytest.approx(expected, rel=1e-9, abs=0.0)
        else:
            assert value == pytest.approx(expected, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 50, 300, 600])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_permutation_tables_are_exactly_one(self, n, parity):
        rng = np.random.default_rng(n)
        for _ in range(5):
            perm = rng.permutation(n)
            if (witness_parity(perm) == "even") != (parity == "even"):
                perm[[0, 1]] = perm[[1, 0]]
            counts = np.zeros((n, n))
            # counts from 0.01 to 1e9: the two sums of logs round apart
            counts[np.arange(n), perm] = 10.0 ** rng.uniform(-2, 9, n)
            cm = cm_of(counts)
            assert perfect_fit_permutation(cm).parity == parity
            assert generalized_mcc(cm) == (1.0 if parity == "even" else -1.0)

    @pytest.mark.parametrize("scale", [100, 1e15])
    def test_one_stray_count_is_below_one(self, scale):
        # the stray count leaves det C alone and raises one row and one column
        # sum, so |det N| = 1 / sqrt((1 + 1/d_i)(1 + 1/d_j)) exactly
        n = 300
        rng = np.random.default_rng(300)
        perm = rng.permutation(n)
        counts = np.zeros((n, n))
        counts[np.arange(n), perm] = np.floor(rng.uniform(1, scale, n))
        i, j = 7, int(perm[8])
        d_i, d_j = counts[i, perm[i]], counts[8, j]
        counts[i, j] += 1.0
        cm = cm_of(counts)
        assert perfect_fit_permutation(cm) is None
        value = abs(generalized_mcc(cm))
        assert value < 1.0
        expected = 1.0 / math.sqrt((1.0 + 1.0 / d_i) * (1.0 + 1.0 / d_j))
        assert value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_huge_counts_near_one_stay_inside_the_bound(self, seed):
        # counts up to 1e300 round log|det N| by ~1e-9, far past the 1e-10
        # slack; the true score is 1 - ~1e-200, with no witness
        n = 1000
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        counts = np.zeros((n, n))
        counts[np.arange(n), perm] = 10.0 ** rng.uniform(0, 300, n)
        counts[5, perm[6]] += 1.0
        value = abs(generalized_mcc(cm_of(counts)))
        assert value < 1.0
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_underflow_reads_positive_zero_for_either_sign(self):
        # log|det N| is about -3300: exp underflows whatever the sign
        counts = strongly_diagonal_counts(np.random.default_rng(1000), 1000)
        swapped = counts[[1, 0, *range(2, 1000)]]  # one row swap flips the sign
        signs = []
        for table in (counts, swapped):
            cm = cm_of(table)
            sign, logdet = np.linalg.slogdet(normalized_matrix(cm))
            assert -math.inf < logdet < -746
            signs.append(sign)
            value = generalized_mcc(cm)
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0
        assert sorted(signs) == [-1.0, 1.0]

    def test_row_product_bound(self):
        # |det M| cannot exceed the product of M's row sums
        rng = np.random.default_rng(24)
        for _ in range(200):
            cm = random_matrix(rng, int(rng.integers(2, 6)))
            m = normalized_matrix(cm)
            bound = float(np.prod(m.sum(axis=1)))
            assert abs(generalized_mcc(cm)) <= bound + 1e-12

    def test_entry_sum_feeds_product_bound(self):
        # sum of all entries of M is at most n, so by AM-GM the row-sum
        # product is at most 1, which is how the determinant bound closes
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            cm = random_matrix(rng, n)
            m = normalized_matrix(cm)
            entry_sum = float(m.sum())
            assert entry_sum <= n + 1e-9
            row_sums = m.sum(axis=1)
            am_gm_cap = float((row_sums.sum() / n) ** n)
            assert float(np.prod(row_sums)) <= am_gm_cap + 1e-12
            assert am_gm_cap <= 1 + 1e-9


def pivot_table(rng, n, fixed, tie):
    """Counts whose every row has one dominant cell, more than twice the rest of
    its row, on a permutation that fixes a share `fixed` of the classes.  A fixed
    class holds the largest cell of its column; a moved one cannot, and every
    other moved class has no hit.  With `tie`, one other cell of a fixed class's
    column equals its diagonal.  Row dominance keeps the table well away from
    singular, so both LUs decide its sign."""
    sigma = np.arange(n)
    moved = rng.permutation(n)[: n - round(fixed * n)]
    if moved.size > 1:  # one cycle through the moved classes fixes none of them
        sigma[moved] = np.roll(moved, 1)
    counts = rng.integers(1, 10, (n, n)) * (rng.random((n, n)) < 4 / n)
    counts[moved[::2], moved[::2]] = 0
    counts[np.arange(n), sigma] = 0
    counts = counts.astype(float)
    counts[np.arange(n), sigma] = 2 * counts.sum(axis=1) + np.floor(10 ** rng.uniform(1, 4, n))
    fixed_classes = np.flatnonzero(sigma == np.arange(n))
    if tie and fixed_classes.size:
        s = int(rng.choice(fixed_classes))
        i = (s + 1) % n
        counts[i, s] = counts[s, s]
        rest = counts[i].sum() - counts[i, sigma[i]]
        counts[i, sigma[i]] = max(counts[i, sigma[i]], 2 * rest + 1)
    return counts


def _eliminated(counts):
    # (sign, log|det C|, sum of the pivots' |log|) through the pivot elimination of
    # `multiclass._log_det`, called with no gate: the LU of the Schur complement
    # `_eliminate` leaves, and the logs of its pivots, added in `_log_det`'s order
    schur, pivots = multiclass._eliminate(counts, np.flatnonzero(counts))
    sign, logdet = np.linalg.slogdet(schur.T)
    logs = np.log(pivots)
    return sign, logdet + float(logs.sum()), float(np.abs(logs).sum())


class TestPivotElimination:
    """`_eliminate` against one LU of the whole table."""

    # the elimination and the LU round apart by c n eps nats per unit of the log of
    # the largest cell, as each pivot's log rounds relative to its size: c is the
    # stated bound, 2.92 the largest seen over 20,000 such tables
    C = 8

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 60),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.sampled_from([0.0, 0.5, 1.0]),
        tie=st.booleans(),
    )
    def test_matches_one_lu_of_the_whole_table(self, n, seed, fixed, tie):
        counts = pivot_table(np.random.default_rng(seed), n, fixed, tie)
        diagonal = counts.diagonal()
        qualifying = (diagonal > 0) & (diagonal >= counts.max(axis=0))
        # the case each table was built for: no class qualifying, every class
        # qualifying, classes with no hit, and a tie with a column's maximum
        assert qualifying.any() == (fixed > 0) or n - round(fixed * n) <= 1
        assert qualifying.all() == (fixed == 1) or n - round(fixed * n) <= 1
        if n - round(fixed * n) > 1:
            assert (diagonal == 0).any()
        if tie and fixed > 0:
            assert ((counts == diagonal) & qualifying).sum() > qualifying.sum()
        sign, logdet, _ = _eliminated(counts)
        expected_sign, expected = np.linalg.slogdet(counts.T)
        assert sign == expected_sign != 0
        bound = self.C * n * 2.0**-52 * math.log(counts.max())
        assert abs(logdet - expected) <= bound, (logdet, expected)

    @pytest.mark.parametrize("n", [multiclass._ELIMINATE_MIN_N, 1000])
    def test_diagonal_table_past_the_gate_reads_one_through_its_witness(self, n):
        # every class joins S and the complement is 0 x 0, which numpy's slogdet
        # reads as (1, 0): log|det C| is the sum of the pivots' logs
        counts = np.diag(np.floor(10.0 ** np.random.default_rng(n).uniform(0, 9, n)))
        schur, pivots = multiclass._eliminate(counts, np.flatnonzero(counts))
        assert schur.shape == (0, 0) and pivots.tolist() == counts.diagonal().tolist()
        sign, logdet, pivot_logs = _eliminated(counts)
        logs = np.log(counts.diagonal())
        assert (sign, logdet, pivot_logs) == (1.0, float(logs.sum()), float(np.abs(logs).sum()))
        assert generalized_mcc(cm_of(counts)) == 1.0


class TestGeneralizedF1:
    def test_three_class_example_arithmetic(self):
        # per-class harmonic values are (2/3, 2/3, 0.4); mean is 26/45
        cm = cm_of(GRID3)
        assert generalized_f1(cm) == pytest.approx(26 / 45, abs=1e-12)

    def test_three_class_example_harmonic_outer(self):
        cm = cm_of(GRID3)
        assert generalized_f1(cm, HARMONIC) == pytest.approx(
            oracles.gen_f1_ref(GRID3, harmonic_list), abs=1e-12
        )
        assert generalized_f1(cm, HARMONIC) == pytest.approx(
            0.5454545454545455, abs=1e-12
        )

    def test_perfect_diagonal_any_outer(self):
        cm = cm_of([[4, 0, 0], [0, 9, 0], [0, 0, 2]])
        for outer in (ARITHMETIC, HARMONIC, GEOMETRIC, AveragingSpec.power(-2.0)):
            assert generalized_f1(cm, outer) == 1.0

    def test_never_predicted_class_zeroes_harmonic_outer(self):
        # class 2 occurs but is never predicted, so its per-class value is 0
        cm = cm_of([[3, 0, 0], [0, 4, 0], [1, 2, 0]])
        assert generalized_f1(cm, HARMONIC) == 0.0

    def test_per_class_f1_equals_scalar_power_mean_bitwise(self, monkeypatch):
        # each class's F1, the values the outer average receives, is the
        # scalar harmonic mean of its two diagonal rates, its fallback for a
        # reciprocal that overflows (an F1 of 2e-310) included
        per_class, kernel = [], multiclass._power_mean

        def recording_kernel(values, p):
            per_class.append(list(values))
            return kernel(values, p)

        monkeypatch.setattr(multiclass, "_power_mean", recording_kernel)
        f1_values = []
        for cm in pair_mean_tables(10):
            generalized_f1(cm)
            precision, recall = oracles.diagonal_rates_loop(cm.counts)
            ref = [power_mean(pair, -1.0) for pair in zip(precision, recall)]
            assert per_class.pop() == ref
            f1_values += ref
        assert 2e-310 in f1_values  # the fallback ran

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            grid = random_counts(rng, int(rng.integers(2, 6)))
            cm = cm_of(grid)
            assert generalized_f1(cm) == pytest.approx(
                oracles.gen_f1_ref(grid.tolist(), oracles.arithmetic), abs=1e-12
            )

    def test_min_max_outer_rejected(self):
        cm = cm_of(GRID3)
        for outer in (MIN, MAX):
            with pytest.raises(ValueError, match="invalid outer spec"):
                generalized_f1(cm, outer)

    @pytest.mark.parametrize(
        "door",
        [
            lambda cm: generalized_f1(cm, "harmonic"),
            lambda cm: generalized_fm(cm, "harmonic"),
            lambda cm: evaluate_metric(cm, "generalized_f1", outer="harmonic"),
            lambda cm: one_vs_one_average(cm, "f1", "min"),
        ],
    )
    def test_outer_that_is_no_spec_refused_by_type(self, door):
        with pytest.raises(ValueError, match="outer must be an AveragingSpec, not the str '"):
            door(cm_of(GRID3))

    def test_power_outer_above_one_rejected(self):
        message = r"invalid outer spec power:1\.5: an outer exponent must be <= 1"
        with pytest.raises(ValueError, match=message):
            generalized_f1(cm_of(GRID3), AveragingSpec.power(1.5))


class TestGeneralizedFm:
    def test_three_class_example(self):
        cm = cm_of(GRID3)
        assert generalized_fm(cm) == pytest.approx(0.6214624192874624, abs=1e-12)

    def test_equals_average_of_normalized_diagonal(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            cm = random_matrix(rng, int(rng.integers(2, 6)))
            diag = tuple(normalized_matrix(cm).diagonal())
            # and the closed-form ratio matrix's diagonal, averaged apart from the package
            references = {
                ARITHMETIC: oracles.arithmetic,
                GEOMETRIC: lambda values: math.prod(values) ** (1 / len(values)),
            }
            for outer, reference in references.items():
                value = generalized_fm(cm, outer)
                assert value == power_mean(diag, outer.exponent)
                assert value == pytest.approx(oracles.gen_fm_ref(cm.counts, reference), abs=1e-12)

    def test_dominates_f1_with_matching_outer(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            cm = random_matrix(rng, int(rng.integers(2, 6)))
            for outer in (ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5)):
                assert generalized_f1(cm, outer) <= generalized_fm(cm, outer) + 1e-12

    def test_perfect_diagonal(self):
        assert generalized_fm(cm_of([[4, 0], [0, 2]])) == 1.0

    def test_rates_past_the_double_range(self):
        # class 0's F1 is 2e-310 (1 / 1e-310 overflows) and its FM is 1e-200
        # (1e-200 squared underflows); neither is 0, so no geometric outer is
        f1_table = cm_of([[1e-310, 1], [0, 1]])
        assert generalized_f1(f1_table, GEOMETRIC) == pytest.approx(
            math.sqrt(2e-310 * (2 / 3)), rel=1e-12
        )
        fm_table = cm_of([[1e-200, 1], [1, 1]])
        assert generalized_fm(fm_table, GEOMETRIC) == pytest.approx(
            math.sqrt(1e-200 * math.sqrt(0.5)), rel=1e-12
        )
        assert normalized_matrix(fm_table)[0, 0] == 1e-200

    def test_two_classes_equal_one_vs_one(self):
        # at n = 2 the one pair's two orientations are the two classes, also
        # where a class's precision times its recall underflows
        rng = np.random.default_rng(29)
        tables = [cm_of([[1e-200, 1], [1, 1]])]
        tables += [cm_of(random_counts(rng, 2)) for _ in range(100)]
        for cm in tables:
            for outer in (ARITHMETIC, GEOMETRIC, HARMONIC):
                pairwise = one_vs_one_average(cm, "fowlkes_mallows", outer).value
                assert pairwise == generalized_fm(cm, outer), (cm.counts, outer)
        assert generalized_fm(tables[0], GEOMETRIC) == 7.071067811865475e-101
        assert one_vs_one_average(tables[0], "fowlkes_mallows", HARMONIC).value == 2e-200


def _phi_exact(grid):
    # phi from the chi-square sum in Fractions, held to phi^2 from its expansion:
    # both are the square root of one rational, so they are one double
    phi = oracles.cramers_phi_exact(grid)
    assert phi == math.sqrt(oracles.phi_squared_exact(grid)), grid
    return phi


def _phi_block_loop(counts):
    # cramers_phi's sum over every cell, block by block, with fresh temporaries
    n = len(counts)
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    row_shares = rows / counts.sum()
    row_div, col_div = np.where(rows > 0, rows, 1.0), np.where(cols > 0, cols, 1.0)
    step = max(1, multiclass._PHI_BLOCK_CELLS // n)
    chi2_share = 0.0
    for lo in range(0, n, step):
        hi = lo + step
        t = counts[lo:hi] / col_div - row_shares[lo:hi, None]
        u = t * np.sqrt(cols) * (1.0 / np.sqrt(row_div[lo:hi]))[:, None]
        chi2_share += float(np.vdot(u, u))
    return min(1.0, math.sqrt(chi2_share / (n - 1)))


def _phi_nonzero_cells(counts):
    # cramers_phi's chi2 / N over the nonzero cells, and each row's zero cells in closed
    # form, with fresh temporaries; None where a row's nonzero columns hold more than
    # half of all predictions
    n, total = len(counts), counts.sum()
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    i, j = np.nonzero(counts)
    held = np.bincount(i, weights=cols[j], minlength=n)
    if 2 * held.max() > total:
        return None
    row_shares, row_scales = rows / total, 1.0 / np.sqrt(np.where(rows > 0, rows, 1.0))
    t = counts[i, j] / np.where(cols > 0, cols, 1.0)[j] - row_shares[i]
    u = t * np.sqrt(cols)[j] * row_scales[i]
    zeros = row_shares * row_scales * np.sqrt(total - held)
    return float(np.vdot(u, u)) + float(np.vdot(zeros, zeros))


def phi_and_path(cm, gate=None):
    """cramers_phi of cm, and whether it took the sum over the nonzero cells, with
    that sum's class-count gate at `gate` where one is given."""
    kinds, kernel = [], multiclass._phi_cells

    def spy(cells, *args):
        kinds.append(cells.ndim)  # 2 for a block of rows, 1 for the gathered cells
        return kernel(cells, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiclass, "_phi_cells", spy)
        if gate is not None:
            patch.setattr(multiclass, "_PHI_SPARSE_MIN_N", gate)
        value = cramers_phi(cm)
    return value, kinds == [1]


def sparse_phi_table(rng, n, empty=False):
    """Integer counts in the pattern of a wide table: a diagonal of hits and about
    three other nonzero cells a row, some rows and columns empty with `empty`.  Row 0
    holds one cell, at (0, 0), the only nonzero cell of column 0, so its nonzero
    columns hold c_0 of the predictions, and that share can be set alone."""
    counts = rng.integers(1, 50, (n, n)) * (rng.random((n, n)) < 3 / n)
    counts[np.arange(n), np.arange(n)] = rng.integers(0, 50, n)
    if empty:
        counts[rng.random(n) < 0.2] = 0
        counts[:, rng.random(n) < 0.2] = 0
    counts[0] = counts[:, 0] = 0
    counts[0, 0] = rng.integers(1, 50)
    return counts


class TestCramersPhi:
    def test_three_class_example(self):
        assert cramers_phi(cm_of(GRID3)) == pytest.approx(
            0.48657806242104484, abs=1e-12
        )

    def test_matches_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            grid = random_counts(rng, int(rng.integers(2, 6)))
            assert cramers_phi(cm_of(grid)) == pytest.approx(
                min(1.0, oracles.cramers_phi_ref(grid.tolist())), abs=1e-10
            )

    def test_scaled_identity(self):
        # expected counts k/2 and k/4 are dyadic, so these come out exact
        for k in (1, 2, 3, 7, 100):
            assert cramers_phi(cm_of(k * np.identity(2))) == 1.0
            assert cramers_phi(cm_of(k * np.identity(4))) == 1.0
        # k/3 is not representable, so 3 classes land within one ulp of 1
        for k in (1, 2, 3, 7, 100):
            v = cramers_phi(cm_of(k * np.identity(3)))
            assert v == pytest.approx(1.0, abs=1e-12)
            assert v <= 1.0

    def test_unbalanced_diagonal_close_to_one(self):
        cm = cm_of([[100, 0, 0], [0, 50, 0], [0, 0, 25]])
        assert cramers_phi(cm) == pytest.approx(1.0, abs=1e-12)
        assert cramers_phi(cm) <= 1.0

    def test_independent_table_is_zero(self):
        assert cramers_phi(cm_of([[4, 4], [4, 4]])) == 0.0
        # rank-one counts: observed equals expected
        outer = np.outer([2, 5, 3], [4, 1, 6]).astype(float)
        assert cramers_phi(cm_of(outer)) == pytest.approx(0.0, abs=1e-10)

    def test_agrees_with_absolute_mcc_at_two_classes(self):
        rng = np.random.default_rng(30)
        for _ in range(400):
            grid = random_counts(rng, 2)
            cm = cm_of(grid)
            assert cramers_phi(cm) == pytest.approx(
                abs(two_class_score(cm, "mcc")), abs=1e-10
            )

    def test_matches_reference_at_200(self):
        counts = strongly_diagonal_counts(np.random.default_rng(201), 200)
        assert cramers_phi(cm_of(counts)) == pytest.approx(
            oracles.cramers_phi_ref(counts), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 7, 20, 180])
    def test_one_block_is_the_whole_table_expression(self, n):
        # 180 * 180 cells still fit in one block: u = ((O - E) / c) sqrt(c) / sqrt(r),
        # with t = (O - E) / c taken as O / c - r / N, and chi2 / N = u . u
        counts = random_counts_with_empty_classes(np.random.default_rng(n), n)
        rows, cols = counts.sum(axis=1), counts.sum(axis=0)
        row_div, col_div = np.where(rows > 0, rows, 1.0), np.where(cols > 0, cols, 1.0)
        t = counts / col_div - (rows / counts.sum())[:, None]
        u = t * np.sqrt(cols) * (1.0 / np.sqrt(row_div))[:, None]
        whole = min(1.0, math.sqrt(float(np.vdot(u, u)) / (n - 1)))
        assert cramers_phi(cm_of(counts)) == whole

    @pytest.mark.parametrize("n", [181, 300, 1000])
    def test_blocks_are_the_loop_with_fresh_temporaries(self, n):
        # 181 * 181 cells are one block; 300 and 1000 end on a short block.  These
        # tables are dense: the two past the gate read the sparse view, find none and
        # take the block loop, and the one below it never reads the view
        counts = random_counts_with_empty_classes(np.random.default_rng(n), n)
        cm = cm_of(counts)
        assert phi_and_path(cm) == (_phi_block_loop(counts), False)
        past_the_gate = n >= multiclass._PHI_SPARSE_MIN_N
        assert vars(cm).get("_nonzero_cells", "unread") == (None if past_the_gate else "unread")

    @pytest.mark.parametrize("kind", ["row_1e-160", "times_2^-1070"])
    def test_tiny_marginals_keep_relative_accuracy(self, kind):
        # a row of 1e-160 beside integer rows, and integers times 2^-1070, exact
        # subnormal counts: on the second, O - E taken per cell, or (O - E) / c
        # squared before it is scaled, keeps only a few bits
        counts = random_counts_with_empty_classes(np.random.default_rng(30), 20)
        if kind == "row_1e-160":
            counts[0] = 0.0
            counts[0, 3] = 1e-160
        else:
            counts *= 2.0**-1070
        exact = _phi_exact(counts.tolist())
        assert cramers_phi(cm_of(counts)) == pytest.approx(exact, rel=4 * 2.0**-52, abs=0)

    @pytest.mark.parametrize(
        "grid",
        [  # tables 134, 14, 596 and 549 of `tools/score_sweep.py`, then two tables of tiny phi
            [[1.4916681462400413e-154, 1e300], [1e-310, 0.0]],
            [
                [1e-310, 5e-324, 1e-310],
                [1.4916681462400413e-154, 1e300, 1e300],
                [1e-310, 1.4916681462400413e-154, 5e-324],
            ],
            [[1.4916681462400413e-154, 5e-324], [1e300, 1e-310]],
            [[0.0, 1e-310, 0.0], [10.0, 1e-310, 1e-310], [1.4916681462400413e-154, 5e-324, 34.0]],
            [[1.0, 1e-150], [1e-150, 2e-300]],
            [[7.183673017476157e-114, 2.724829906991974e-221], [9.874755320549059e-242, 0.0]],
        ],
    )
    def test_edge_tables_keep_relative_accuracy(self, grid):
        # phi is 8.2e-79, 4.1e-79, 4.0e-92, 0.866, 1e-150 and 2.3e-118 (|MCC|): one
        # division a cell, squared before it is scaled, reads the first three and
        # the last two as 0.0 and the fourth 32 ulps off; so the bound is relative
        assert cramers_phi(cm_of(grid)) == pytest.approx(_phi_exact(grid), rel=4 * 2.0**-52, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1))
    def test_even_power_of_two_scales_read_the_same_bits(self, n, seed):
        # integer counts times 2^e keep every cell, marginal, share and t exact,
        # and an even e scales sqrt(c) and 1 / sqrt(r) exactly, so no bit moves
        counts = random_counts_with_empty_classes(np.random.default_rng(seed), n)
        value = cramers_phi(cm_of(counts))
        for exponent in (-1070, -1000, -600, 600, 1000):
            assert cramers_phi(cm_of(counts * 2.0**exponent)) == value, exponent

    def test_subnormal_counts(self):
        # [[4, 4], [5, 2]] * 5e-324 is the integer table times 2^-1074: its bits
        assert cramers_phi(cm_of([[2e-323, 2e-323], [2.5e-323, 1e-323]])) == 0.21821789023599236
        # integer counts times subnormal and tiny scales, to 4 eps relative and
        # n eps absolute: each u = (O - E) / sqrt(r c) is good to a few eps, and
        # |u| <= 1, so a near-independent table, whose t = O / c - r / N cancels,
        # keeps its absolute accuracy only (1 eps is the largest error seen
        # over 9,000 such tables)
        eps, rng = 2.0**-52, np.random.default_rng(93)
        for scale in (5e-324, 1e-315, 1e-310, 1e-300, 2.0**-1000):
            for _ in range(20):
                n = int(rng.integers(2, 6))
                grid = random_counts(rng, n) * scale
                exact = math.sqrt(oracles.phi_squared_exact(grid))
                assert abs(cramers_phi(cm_of(grid)) - exact) <= 4 * eps * exact + n * eps, grid

    def test_within_2_ulps_of_exact_on_sweep_tables(self):
        # the tables of at most 10 classes among the first 120 of `tools/score_sweep.py`,
        # 8 to 12 of each kind, the smoothed kind smoothed as the sweep smooths it;
        # larger tables of edge cells take the exact oracle seconds
        for index, grid in enumerate(_load_script("tools", "score_sweep.py").tables(120)):
            if not grid.any() or len(grid) > 10:
                continue
            cm = cm_of(grid) if index % 6 != 5 else smooth(cm_of(grid), 0.5)
            exact = math.sqrt(oracles.phi_squared_exact(cm.counts.tolist()))
            assert abs(cramers_phi(cm) - exact) <= 2 * math.ulp(exact), index

    def test_within_2_ulps_of_exact_on_wide_benchmark_tables(self):
        # every table of `wide_tables` seeds 1-3, at n = 300 and 1000, takes the sum
        # over its nonzero cells, bit for bit its restatement with fresh temporaries;
        # the block loop reads up to 4 ulps off on them
        workloads = _load_script("perfbench", "workloads.py")
        sparse = 0
        for seed in (1, 2, 3):
            for counts in workloads.wide_tables(seed)[0]:
                value, took = phi_and_path(cm_of(counts))
                if took:
                    share = _phi_nonzero_cells(counts)
                    assert value == min(1.0, math.sqrt(share / (len(counts) - 1)))
                    exact = math.sqrt(oracles.phi_squared_exact(counts))
                    assert abs(value - exact) <= 2 * math.ulp(exact), (seed, len(counts))
                    sparse += 1
        assert sparse == 48

    def test_many_blocks_at_1000(self, monkeypatch):
        counts = random_counts_with_empty_classes(np.random.default_rng(1001), 1000, 5)
        cm = cm_of(counts)
        assert 1000 * 1000 > multiclass._PHI_BLOCK_CELLS
        value = cramers_phi(cm)
        assert value == pytest.approx(oracles.cramers_phi_ref(counts), rel=1e-12)
        # the block sums round apart only in the order they are added
        monkeypatch.setattr(multiclass, "_PHI_BLOCK_CELLS", 3000)
        assert cramers_phi(cm) == pytest.approx(value, rel=1e-13)
        monkeypatch.setattr(multiclass, "_PHI_BLOCK_CELLS", 1)
        assert cramers_phi(cm) == pytest.approx(value, rel=1e-13)

    @pytest.mark.parametrize(
        "grid", [[[1e-320, 0], [0, 3]], [[1e-320, 0, 0], [0, 3, 1], [0, 1, 2]]]
    )
    def test_subnormal_count_with_underflowing_expected_count(self, grid):
        # r * c / total underflows to 0 at the subnormal cell; its O^2 / E stays
        assert cramers_phi(cm_of(grid)) == pytest.approx(
            _phi_exact(grid), abs=1e-12
        )

    @pytest.mark.parametrize(
        "grid",
        [
            [[1e-200, 0], [1e-200, 1e300]],
            [[1e-200, 0, 0], [0, 1e300, 1e299], [1e-200, 1e299, 1e300]],
        ],
    )
    def test_count_flushed_by_the_rescale(self, grid):
        # 1e-200 is more than 2^1074 times below the total, so the power-of-two
        # rescale flushes it to 0; its O^2 / E is taken from the unscaled counts
        assert cramers_phi(cm_of(grid)) == pytest.approx(
            _phi_exact(grid), abs=1e-12
        )

    @pytest.mark.parametrize(
        "grid",
        [
            [[1e178, 0], [1e-163, 1e17]],
            [[1e120, 1e5], [1e-90, 1e281]],
            [[1e230, 1e-302, 1e-44], [1e-119, 1e69, 0], [0, 0, 1e-67]],
        ],
    )
    def test_counts_of_very_different_size(self, grid):
        # counts more than 10^180 apart; each table's exact value is 1 or 1/sqrt(2)
        assert cramers_phi(cm_of(grid)) == pytest.approx(
            _phi_exact(grid), abs=1e-12
        )

    def test_counts_across_the_double_range(self):
        rng = np.random.default_rng(1010)
        checked = 0
        while checked < 400:
            n = int(rng.integers(2, 6))
            grid = 10.0 ** rng.uniform(-320, 300, (n, n))
            grid[rng.random((n, n)) < 0.3] = 0.0
            if not grid.any():
                continue
            cm = cm_of(grid)
            value = cramers_phi(cm)
            exact = math.sqrt(oracles.phi_squared_exact(grid))
            # 4 eps relative, down to 2^-511: under it phi^2 is subnormal
            assert value == pytest.approx(exact, rel=4 * 2.0**-52, abs=2.0**-511)
            if n == 2:
                mcc = abs(two_class_score(cm, "mcc"))
                assert value == pytest.approx(mcc, rel=4 * 2.0**-52, abs=2.0**-511)
            checked += 1

    def test_zero_marginal_cells_contribute_nothing(self):
        # column 1 never predicted: expected counts there are zero
        cm = cm_of([[3, 0, 1], [2, 0, 2], [1, 0, 5]])
        assert 0.0 <= cramers_phi(cm) <= 1.0


class TestSparsePhi:
    """`cramers_phi`'s chi2 / N from the nonzero cells, reached with no class-count gate,
    and the one scan of a wide table that it shares with the determinant."""

    # phi within C (ceil(log2 n) + 8) eps relative of the exact value: C is the stated
    # bound, 0.14 of it the largest error seen over 9,000 such tables at three scales
    C = 1

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 60),
        seed=st.integers(0, 2**32 - 1),
        empty=st.booleans(),
        side=st.sampled_from(["free", "at the guard", "one past"]),
    )
    def test_matches_exact_phi(self, n, seed, empty, side):
        counts = sparse_phi_table(np.random.default_rng(seed), n, empty)
        if side != "free":  # row 0's column then holds half of all predictions, or one more
            counts[0, 0] = counts.sum() - counts[0, 0] + (side == "one past")
            assert 2 * counts[0, 0] - counts.sum() == (side == "one past")
        # where (0, 0) was the only nonzero cell, its half is 0: no table is left
        assume(counts.any())
        cols = counts.sum(axis=0)
        # the guard in integers: no row's nonzero columns hold more than half
        past = 2 * max(cols[np.flatnonzero(row)].sum() for row in counts) > counts.sum()
        exact = math.sqrt(oracles.phi_squared_exact(counts))
        bound = self.C * (math.ceil(math.log2(n)) + 8) * 2.0**-52 * exact
        shares = {}
        # integer counts, times 2^-1000 and 2^1000, then near the ends of the doubles:
        # each count an exact subnormal, and the total just below 2^1023
        top = 2.0 ** (1023 - int(counts.sum()).bit_length())
        for scale in (1.0, 2.0**-1000, 2.0**1000, 2.0**-1074, top):
            grid = counts * scale
            value, took = phi_and_path(cm_of(grid), gate=0)
            share = _phi_nonzero_cells(grid)
            assert (share is None) == past and took is not past, scale
            if share is None:
                assert value == _phi_block_loop(grid), scale
            else:
                assert value == min(1.0, math.sqrt(share / (n - 1))), scale
                assert abs(math.sqrt(share / (n - 1)) - exact) <= bound, scale
                shares[scale] = share
        if not past:
            assert shares[2.0**-1000] == shares[1.0] == shares[2.0**1000]

    @pytest.mark.parametrize("past", [False, True], ids=["at the guard", "one count past"])
    def test_a_table_past_the_guard_takes_the_block_loop(self, past):
        # row 0's nonzero columns hold exactly half of all predictions, or one more
        counts = sparse_phi_table(np.random.default_rng(256), 300).astype(float)
        counts[0, 0] = counts.sum() - counts[0, 0] + past
        cm = cm_of(counts)
        value, took = phi_and_path(cm)
        assert cm._nonzero_cells is not None and took is not past
        if past:
            assert value == _phi_block_loop(counts)
        else:
            exact = math.sqrt(oracles.phi_squared_exact(counts))
            assert abs(value - exact) <= 2 * math.ulp(exact)

    def test_one_scan_serves_both_kernels_of_a_wide_table(self, monkeypatch):
        # the five scores of the benchmark's wide workload on an n = 1000 table: one
        # count and one index of its nonzero cells, split into rows and columns by the
        # elimination and by phi's sum over those cells
        workloads = _load_script("perfbench", "workloads.py")
        tables, kinds = workloads.wide_tables(1)
        counts = next(
            c for c, kind in zip(tables, kinds) if len(c) == 1000 and kind == "all_predicted"
        )
        scans, kernels = [], []

        def spy(module, name, calls):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append((name, args)) or f(*args))

        for name in ("count_nonzero", "flatnonzero", "divmod"):
            spy(np, name, scans)
        for name in ("_eliminate", "_phi_cells"):
            spy(multiclass, name, kernels)
        cm = cm_of(counts)
        for name in ("generalized_mcc", "generalized_f1", "generalized_fm", "cramers_phi"):
            evaluate_metric(cm, name)
        evaluate_metric(cm, "lp_multiclass", p=-1.0)
        view = cm._nonzero_cells
        # the elimination's own calls read vectors of n classes
        whole = [name for name, args in scans if args[0].size == counts.size]
        assert whole == ["count_nonzero", "flatnonzero"]
        assert [name for name, args in scans if args[0] is view] == ["divmod", "divmod"]
        assert [name for name, _ in kernels] == ["_eliminate", "_phi_cells"]
        (_, eliminated), (_, (cells, *_)) = kernels
        assert eliminated[1] is view and cells.shape == view.shape
        assert view.tolist() == np.flatnonzero(counts).tolist()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1

    def test_no_table_below_the_gate_reads_the_view(self):
        # the whole panel on small tables and on a sparse one just below the gate: the
        # first read of a cached property takes a lock before Python 3.12, so none is made
        tables = CACHE_TABLES[:30]
        tables.append(sparse_phi_table(np.random.default_rng(1), multiclass._PHI_SPARSE_MIN_N - 1))
        for grid in tables:
            cm = cm_of(grid)
            for name, info in METRICS.items():
                evaluate_metric(cm, name, p=-1.0 if info.needs_p else None)
            assert "_nonzero_cells" not in vars(cm), cm.n


def _one_vs_one_tables():
    # seeded tables at n = 2..30: empty rows and columns, smoothed fractional
    # counts, permutation tables, counts scaled far out of the unit range, and
    # subnormal cells beside normal ones, whose subnormal rates take the
    # harmonic and geometric fallbacks; then one n = 60 table with empty classes
    rng = np.random.default_rng(808)
    kinds = {
        "empty classes": lambda n: random_counts_with_empty_classes(rng, n),
        "smoothed": lambda n: random_counts(rng, n, 5) + rng.uniform(0.01, 1.0),
        "permutation": lambda n: random_permutation_counts(rng, n),
        "scaled by 2^600": lambda n: random_counts(rng, n) * 2.0**600,
        "scaled by 2^-600": lambda n: random_counts(rng, n) * 2.0**-600,
        "subnormal cells": lambda n: np.where(
            rng.random((n, n)) < 0.3, 1e-320, random_counts(rng, n)
        ),
    }
    for kind, make in kinds.items():
        for n in (2, 30, *rng.integers(3, 30, size=2).tolist()):
            yield f"{kind}, n={n}", cm_of(make(n))
    yield "empty classes, n=60", cm_of(random_counts_with_empty_classes(rng, 60))


ONE_VS_ONE_TABLES = list(_one_vs_one_tables())
SIGNED_OUTERS = (ARITHMETIC, MIN, MAX)
UNSIGNED_OUTERS = (
    ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5), AveragingSpec.power(-2.0)
)


class TestOneVsOneLoop:
    @pytest.mark.parametrize("metric", BINARY_METRIC_NAMES)
    def test_bit_for_bit_with_pair_loop(self, metric):
        info = METRICS["one_vs_one_" + metric]
        outers = SIGNED_OUTERS if info.signed else UNSIGNED_OUTERS
        exponents = (-1.0, 0.0, 0.5, -math.inf) if info.needs_p else (None,)
        for name, cm in ONE_VS_ONE_TABLES:
            views = oracles.pair_views(cm)
            for outer in outers:
                for p in exponents:
                    value = one_vs_one_average(cm, metric, outer, p).value
                    expected = oracles.one_vs_one_loop(cm, metric, outer, p, views)
                    assert value == expected, (name, outer.name, p)

    def test_no_matrix_per_pair(self, monkeypatch):
        # the pairs are scored from the table's own cells in one pass: no 2x2
        # sub-table per pair, and p is read once per call
        cm = cm_of(random_counts(np.random.default_rng(12), 12))
        built, checked = [], []

        def counted(calls, name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapper

        init = counted(built, "ConfusionMatrix.__init__", ConfusionMatrix.__init__)
        monkeypatch.setattr(ConfusionMatrix, "__init__", init)
        check = counted(checked, "_check_exponent", means._check_exponent)
        for module in (means, multiclass):
            monkeypatch.setattr(module, "_check_exponent", check)
        for metric in BINARY_METRIC_NAMES:
            p = -1.0 if METRICS["one_vs_one_" + metric].needs_p else None
            checked.clear()
            one_vs_one_average(cm, metric, p=p)
            assert len(checked) == (p is not None), metric
        assert built == []

    @pytest.mark.parametrize(
        "metric, twin", [("specificity", "sensitivity"), ("npv", "precision"), ("f1_zero", "f1")]
    )
    def test_twin_rates_are_equal(self, metric, twin):
        # both orientations of a pair are averaged, and class i's specificity
        # against j is the sensitivity of j against i
        for name, cm in ONE_VS_ONE_TABLES:
            for outer in UNSIGNED_OUTERS:
                value = one_vs_one_average(cm, metric, outer).value
                assert value == one_vs_one_average(cm, twin, outer).value, (name, outer.name)


class TestOneVsOne:
    def test_three_class_mcc_example(self):
        # pair values: mcc([[20,6],[2,20]]), mcc([[20,0],[12,8]]) twice
        score = one_vs_one_average(cm_of(GRID3), "mcc")
        assert score.value == pytest.approx(0.5594405594405595, abs=1e-12)
        assert score.metric_id == "one_vs_one_mcc"
        assert score.parameters == {"outer": "arithmetic"}
        assert score.n_classes == 3

    def test_pair_values_directly(self):
        cm = cm_of(GRID3)
        pair01 = two_class_score(cm_of([[20, 6], [2, 20]]), "mcc")
        pair02 = two_class_score(cm_of([[20, 0], [12, 8]]), "mcc")
        pair12 = two_class_score(cm_of([[20, 0], [12, 8]]), "mcc")
        expected = (pair01 + pair02 + pair12) / 3
        assert one_vs_one_average(cm, "mcc").value == pytest.approx(
            expected, abs=1e-12
        )

    def test_perfect_diagonal(self):
        cm = cm_of([[4, 0, 0], [0, 9, 0], [0, 0, 2]])
        assert one_vs_one_average(cm, "mcc").value == 1.0
        assert one_vs_one_average(cm, "f1").value == 1.0
        assert one_vs_one_average(cm, "lp_four_rate", p=-1.0).value == 1.0

    def test_two_class_collapse(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cm = cm_of(random_counts(rng, 2))
            assert one_vs_one_average(cm, "mcc").value == two_class_score(cm, "mcc")

    def test_min_max_outer_on_signed_metric(self):
        cm = cm_of(GRID3)
        lo = one_vs_one_average(cm, "mcc", MIN).value
        hi = one_vs_one_average(cm, "mcc", MAX).value
        mid = one_vs_one_average(cm, "mcc", ARITHMETIC).value
        assert lo <= mid <= hi
        assert lo == pytest.approx(0.5, abs=1e-12)

    def test_signed_metric_rejects_power_family_outers(self):
        cm = cm_of(GRID3)
        for outer in (HARMONIC, GEOMETRIC, AveragingSpec.power(0.5)):
            with pytest.raises(ValueError, match="average undefined on negative values"):
                one_vs_one_average(cm, "mcc", outer)

    def test_signed_metric_takes_power_one_as_arithmetic(self):
        # the signed rule is on the exponent: power:1 is the arithmetic mean
        cm = cm_of(GRID3)
        power_one = one_vs_one_average(cm, "mcc", AveragingSpec.power(1.0))
        assert power_one.value == one_vs_one_average(cm, "mcc").value
        assert power_one.parameters == {"outer": "power:1.0"}

    def test_orientation_independence_of_plain_f1(self):
        # plain F1 depends on which class is positive; the composite
        # averages both orientations, so relabeling must not move it
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            cm = cm_of(random_counts(rng, n))
            perm = list(rng.permutation(n))
            a = one_vs_one_average(cm, "f1").value
            b = one_vs_one_average(relabel(cm, perm), "f1").value
            assert a == pytest.approx(b, abs=1e-12)

    def test_symmetrization_uses_requested_outer(self):
        cm = cm_of(GRID3)
        scores = {}
        for outer in (ARITHMETIC, GEOMETRIC):
            per_pair = []
            for i, j in ((0, 1), (0, 2), (1, 2)):
                sub = cm_of(
                    [
                        [GRID3[i][i], GRID3[i][j]],
                        [GRID3[j][i], GRID3[j][j]],
                    ]
                )
                both = (two_class_score(sub, "f1"), two_class_score(sub, "f1", 1))
                per_pair.append(power_mean(both, outer.exponent))
            scores[outer.name] = power_mean(per_pair, outer.exponent)
        assert one_vs_one_average(cm, "f1", ARITHMETIC).value == pytest.approx(
            scores["arithmetic"], abs=1e-14
        )
        assert one_vs_one_average(cm, "f1", GEOMETRIC).value == pytest.approx(
            scores["geometric"], abs=1e-14
        )

    def test_rate_metrics_available(self):
        cm = cm_of(GRID3)
        for name in ("precision", "sensitivity", "specificity", "npv",
                     "f1_zero", "fowlkes_mallows"):
            score = one_vs_one_average(cm, name)
            assert 0.0 <= score.value <= 1.0
            assert score.metric_id == f"one_vs_one_{name}"

    def test_lp_four_rate_requires_p(self):
        cm = cm_of(GRID3)
        with pytest.raises(ValueError, match="needs an exponent"):
            one_vs_one_average(cm, "lp_four_rate")
        with pytest.raises(ValueError, match="p must be <= 1"):
            one_vs_one_average(cm, "lp_four_rate", p=2.0)
        # the same rule, with the two-class name, for one 2x2 table
        with pytest.raises(ValueError, match="lp_four_rate needs p: it needs an exponent"):
            two_class_score(CM2, "lp_four_rate")
        with pytest.raises(ValueError, match="p must be <= 1"):
            two_class_score(CM2, "lp_four_rate", p=2.0)

    def test_p_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="takes no exponent"):
            one_vs_one_average(cm_of(GRID3), "f1", p=-1.0)
        with pytest.raises(ValueError) as info:
            two_class_score(CM2, "f1", p=-1.0)
        assert str(info.value) == "f1 takes no p option: it takes no exponent"

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown binary metric"):
            one_vs_one_average(cm_of(GRID3), "accuracy")
        with pytest.raises(ValueError, match="unknown binary metric 'accuracy'; choose from"):
            two_class_score(CM2, "accuracy")

    def test_subnormal_count_in_a_pair(self):
        # the pair's product of marginals underflows; its mcc is still 1
        two = cm_of([[1e-320, 0], [0, 3]])
        assert one_vs_one_average(two, "mcc").value == pytest.approx(1.0, abs=1e-12)
        three = cm_of([[1e-320, 0, 0], [0, 3, 1], [0, 1, 2]])
        assert one_vs_one_average(three, "mcc", MIN).value == pytest.approx(
            5 / 12, abs=1e-12
        )

    def test_all_zero_pair_handled(self):
        # classes 0 and 1 never interact: their restriction is all zero and
        # every rate on it is 0 by convention
        cm = cm_of([[0, 0, 2], [0, 0, 3], [4, 5, 0]])
        score = one_vs_one_average(cm, "f1")
        assert 0.0 <= score.value <= 1.0


class TestDiagonalRateScores:
    def test_equal_scalar_formulas_bitwise(self):
        rng = np.random.default_rng(38)
        outers = (ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5))
        grids = [
            *(random_counts_with_empty_classes(rng, int(rng.integers(2, 30))) for _ in range(100)),
            strongly_diagonal_counts(rng, 300),
            strongly_diagonal_counts(rng, 1000),
            [[0, 3, 1], [1, 5, 0], [2, 0, 4]],  # a zero rate
            [[1e-310, 1], [0, 1]],  # subnormal rates: the harmonic fallback
        ]
        for grid in grids:
            cm = cm_of(grid)
            precision, recall = oracles.diagonal_rates_loop(cm.counts)
            f1 = tuple(power_mean((r, s), -1.0) for r, s in zip(recall, precision))
            fm = tuple(power_mean((r, s), 0.0) for r, s in zip(recall, precision))
            for outer in outers:
                assert generalized_f1(cm, outer) == power_mean(f1, outer.exponent)
                assert generalized_fm(cm, outer) == power_mean(fm, outer.exponent)
            for p in (-math.inf, -1.0, -0.5, 0.0, 0.5, 1.0):
                assert lp_multiclass(cm, p) == power_mean(tuple(precision + recall), p)

    def test_rates_are_computed_once_per_table_and_read_only(self):
        cm = cm_of(GRID3)
        first = cm._diagonal_rates
        second = cm._diagonal_rates
        assert len(first) == 2 and all(a is b for a, b in zip(first, second))
        for rates in first:
            assert not rates.flags.writeable
            with pytest.raises(ValueError):
                rates[0] = 0.5

    def test_derived_tables_do_not_inherit_the_cache(self):
        cm = cm_of(GRID3)
        cm._diagonal_rates  # fills the source's cache
        for derived in (smooth(cm, 0.5), transpose(cm), relabel(cm, [2, 0, 1])):
            assert "_diagonal_rates" not in vars(derived)
            precision, recall = oracles.diagonal_rates_loop(derived.counts)
            assert [r.tolist() for r in derived._diagonal_rates] == [precision, recall]

    def test_scores_on_a_reused_table_equal_those_on_a_fresh_one(self):
        rng = np.random.default_rng(23)
        outers = (ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5))
        scores = [
            *(lambda cm, outer=outer: generalized_f1(cm, outer) for outer in outers),
            *(lambda cm, outer=outer: generalized_fm(cm, outer) for outer in outers),
            *(lambda cm, p=p: lp_multiclass(cm, p) for p in (-math.inf, -1.0, 0.0, 0.5, 1.0)),
        ]
        for _ in range(30):
            grid = random_counts_with_empty_classes(rng, int(rng.integers(2, 12)))
            reused = cm_of(grid)
            for score in scores + scores[::-1]:
                assert score(reused).hex() == score(cm_of(grid)).hex()


def _cache_tables():
    # the bit-identity sweep's kinds at n = 2..20: integer counts, permutation
    # tables, cells drawn from 0, 5e-324, 1e-310, 2^-511 and 1e300, counts
    # scaled by 1e298 and 1e-300, and smoothed ones
    rng = np.random.default_rng(2028)
    edges = np.array([0.0, 5e-324, 1e-310, 2.0**-511, 1e300])
    kinds = (
        lambda n: random_counts_with_empty_classes(rng, n),
        lambda n: random_permutation_counts(rng, n),
        lambda n: rng.choice(edges, (n, n)),
        lambda n: random_counts(rng, n) * 1e298,
        lambda n: random_counts(rng, n) * 1e-300,
        lambda n: random_counts(rng, n, 5) + rng.uniform(0.01, 1.0),
    )
    for k in range(198):
        n = 2 if k % 10 == 0 else int(rng.integers(3, 21 if k % 3 == 0 else 13))
        grid = kinds[k % len(kinds)](n)
        if grid.any():
            yield grid
    yield [[1e-320, 0], [0, 3]]
    yield [[3, 1e-310], [1e-310, 1e-320]]


CACHE_TABLES = list(_cache_tables())


def _pair_rate_loop(cm):
    # `ConfusionMatrix._pair_rates`, one ordered pair (i, j) at a time, class i
    # positive: with TP = C[i][i], FP = C[j][i] and FN = C[i][j] (0 where i = j),
    # the n x n planes of precision, sensitivity, FP/(TP+FP) and FN/(TP+FN)
    def rate(num, denom):
        return 0.0 if denom == 0 else num / denom

    c, n = cm.counts.tolist(), cm.n

    def rates(i, j):
        tp, fp, fn = c[i][i], c[j][i] if i != j else 0.0, c[i][j] if i != j else 0.0
        return rate(tp, tp + fp), rate(tp, tp + fn), rate(fp, tp + fp), rate(fn, tp + fn)

    return [[[rates(i, j)[k] for j in range(n)] for i in range(n)] for k in range(4)]


def _cached_arrays(cm):
    return {
        "row_sums": lambda: cm.row_sums,
        "col_sums": lambda: cm.col_sums,
        "_diagonal_rates[0]": lambda: cm._diagonal_rates[0],
        "_diagonal_rates[1]": lambda: cm._diagonal_rates[1],
        "_pair_rates": lambda: cm._pair_rates,
        "_upper": lambda: cm._upper,
        "_per_class_f1": lambda: cm._per_class_f1,
    }


class TestTableCaches:
    """The marginals, the diagonal and pair rates and the per-class F1 are built
    once per table and read-only; every score read from them is the bits a fresh
    table gives."""

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_each_cache_is_read_only_and_built_once(self, n):
        cm = cm_of(random_counts(np.random.default_rng(n), n))
        for name, read in _cached_arrays(cm).items():
            first = read()
            assert read() is first, name
            assert not first.flags.writeable, name
            with pytest.raises(ValueError):
                first[(0,) * first.ndim] = 0.5
        # 4 doubles for each of the n^2 ordered class pairs, 4x the counts' bytes,
        # and one byte each for the mask of the pairs i < j
        assert cm._pair_rates.shape == (4, n, n)
        assert cm._pair_rates.nbytes == 32 * n * n
        assert cm._upper.tolist() == [[i < j for j in range(n)] for i in range(n)]
        assert cm._upper.nbytes == n * n

    def test_pair_rates_are_the_pair_loop(self):
        for grid in CACHE_TABLES[:40]:
            cm = cm_of(grid)
            assert cm._pair_rates.tolist() == _pair_rate_loop(cm)

    def test_a_diagonal_past_half_the_doubles_warns_of_nothing(self):
        # twice C[0][0] is past the doubles, and no sum of the planes doubles a
        # count; every pair value is the pair loop's, with no overflow warning
        for grid in ([[1.5e308, 1, 0], [1, 1, 2], [0, 3, 1e-320]], [[1.5e308, 1], [1, 1]]):
            cm = cm_of(grid)
            views = oracles.pair_views(cm)
            for metric in BINARY_METRIC_NAMES:
                p = -1.0 if METRICS["one_vs_one_" + metric].needs_p else None
                value = one_vs_one_average(cm, metric, ARITHMETIC, p).value
                assert value == oracles.one_vs_one_loop(cm, metric, ARITHMETIC, p, views), metric
                if cm.n == 2:
                    both = [two_class_score(cm, metric, k, p) for k in (0, 1)]
                    assert value == power_mean(both, 1.0), metric

    def test_derived_tables_compute_their_own_caches(self):
        cm = cm_of(GRID3B)
        for read in _cached_arrays(cm).values():
            read()  # fills the source's caches
        for derived in (smooth(cm, 0.5), transpose(cm), relabel(cm, [2, 0, 1])):
            assert {"_pair_rates", "_upper", "_per_class_f1"}.isdisjoint(vars(derived))
            assert derived._pair_rates.tolist() == _pair_rate_loop(derived)
            fresh = cm_of(derived.counts)
            for name, read in _cached_arrays(derived).items():
                assert read().tolist() == _cached_arrays(fresh)[name]().tolist(), name

    def test_fowlkes_mallows_keeps_no_array_of_its_own(self):
        # a panel reads generalized_fm once per table, so it keeps only what
        # the other per-class scores share
        cm = cm_of(GRID3B)
        before = set(vars(cm))
        outers = (ARITHMETIC, GEOMETRIC)
        values = [generalized_fm(cm, outer).hex() for outer in outers]
        assert set(vars(cm)) - before == {"_diagonal_rates", "row_sums", "col_sums"}
        assert values == [generalized_fm(cm_of(GRID3B), outer).hex() for outer in outers]

    def test_scores_on_a_reused_table_equal_those_on_a_fresh_one(self):
        # every one-vs-one row, outer and p scored in sequence on one table,
        # then the per-class means with a second outer and the two-class scores;
        # one outer of each of `_column_means`' paths, as the scalar path costs
        # a Python call per pair
        unsigned = (ARITHMETIC, GEOMETRIC, HARMONIC, AveragingSpec.power(0.5))
        requests = []
        for name, info in METRICS.items():
            if name.startswith("one_vs_one_"):
                outers = SIGNED_OUTERS if info.signed else unsigned
                exponents = (-math.inf, -1.0, 0.0, 0.5) if info.needs_p else (None,)
                requests += [(name, outer, p) for outer in outers for p in exponents]
        requests += [("generalized_f1", ARITHMETIC, None), ("generalized_f1", HARMONIC, None)]
        requests += [("generalized_fm", GEOMETRIC, None), ("generalized_fm", ARITHMETIC, None)]
        for grid in CACHE_TABLES:
            reused = cm_of(grid)
            for name, outer, p in requests:
                value = evaluate_metric(reused, name, outer, p).value
                assert value.hex() == evaluate_metric(cm_of(grid), name, outer, p).value.hex(), (
                    grid, name, outer.name, p
                )
            if reused.n == 2:
                for metric in BINARY_METRIC_NAMES:
                    p = -1.0 if METRICS["one_vs_one_" + metric].needs_p else None
                    for positive in (0, 1):
                        value = two_class_score(reused, metric, positive, p)
                        assert value.hex() == two_class_score(cm_of(grid), metric, positive, p).hex()

    def test_one_pass_over_both_orientations_is_the_two_call_form(self):
        # class 0's diagonal is subnormal: with class 0 positive a pair's rates
        # are below 2^-511, and with the other class positive none is, so the
        # redo gate that opens on the two orientations together would stay shut
        # on the second alone, as it does on each pair's own 2x2 table
        cm = cm_of([[1e-320, 1, 2], [3, 5, 1], [2, 1, 4]])
        rates = cm._pair_rates
        assert 0 < rates[:2, 0, 1:].min() < 2.0**-511 <= rates[:2, 1:, 0].min()
        pairs = [cm_of(cm.counts[np.ix_(ij, ij)]) for ij in itertools.combinations(range(3), 2)]
        for name, info in METRICS.items():
            if not name.startswith("one_vs_one_") or info.swap_invariant:
                continue
            metric = name[len("one_vs_one_"):]
            both = [[two_class_score(two, metric, k) for k in (0, 1)] for two in pairs]
            for outer in UNSIGNED_OUTERS + (MIN, MAX):
                per_pair = [means._power_mean(values, outer.exponent) for values in both]
                expected = means._power_mean(per_pair, outer.exponent)
                value = multiclass._one_vs_one(cm, info, outer, None)
                assert value.hex() == expected.hex(), (name, outer.name)


class TestLpMulticlass:
    def test_perfect_diagonal_any_p(self):
        cm = cm_of([[4, 0, 0], [0, 9, 0], [0, 0, 2]])
        for p in (-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0):
            assert lp_multiclass(cm, p) == 1.0

    def test_minus_inf_is_worst_diagonal_conditional(self):
        cm = cm_of(GRID3)
        rates = [20 / 34, 20 / 38, 8 / 8, 20 / 26, 20 / 22, 8 / 32]
        assert lp_multiclass(cm, -math.inf) == min(rates)

    def test_near_zero_p_is_the_geometric_value(self):
        # every rate's r^p rounds to 1 here; the score read 0.25, the least rate
        cm = cm_of(GRID3)
        for p in (1e-17, -1e-17):
            assert lp_multiclass(cm, p) == pytest.approx(lp_multiclass(cm, 0.0), rel=1e-14)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(33)
        grid_p = [-math.inf, -4.0, -1.0, -0.2, 0.0, 0.5, 1.0]
        for _ in range(100):
            grid = random_positive_marginal_counts(rng, int(rng.integers(2, 5)))
            np.fill_diagonal(grid, grid.diagonal() + 1)  # keep diagonal rates positive
            cm = cm_of(grid)
            values = [lp_multiclass(cm, p) for p in grid_p]
            for lo, hi in zip(values, values[1:]):
                assert lo <= hi + 1e-12

    def test_two_class_harmonic_matches_four_rate_score(self):
        # at n=2 the 2n diagonal conditionals are exactly the four rates
        rng = np.random.default_rng(34)
        for _ in range(100):
            cm = cm_of(random_counts(rng, 2))
            a = lp_multiclass(cm, -1.0)
            b = two_class_score(cm, "lp_four_rate", p=-1.0)
            assert a == pytest.approx(b, abs=1e-12)

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError, match="p must be <= 1"):
            lp_multiclass(cm_of(GRID3), 1.1)

    def test_p_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN exponent"):
            lp_multiclass(cm_of(GRID3), math.nan)

    @pytest.mark.parametrize("p", [True, False, np.True_])
    def test_bool_p_rejected(self, p):
        # float() would read a bool as the exponent 0 or 1
        cm = cm_of(GRID3)
        message = f"exponent must be a number, not the bool {p!r}"
        with pytest.raises(ValueError, match=message):
            lp_multiclass(cm, p)
        for name in ("lp_multiclass", "one_vs_one_lp_four_rate"):
            with pytest.raises(ValueError, match=message):
                multiclass.evaluate_metric(cm, name, p=p)

    def test_str_p_rejected(self):
        cm = cm_of(GRID3)
        message = "exponent must be a number, not the str '-1'"
        with pytest.raises(ValueError, match=message):
            lp_multiclass(cm, "-1")
        for name in ("lp_multiclass", "one_vs_one_lp_four_rate"):
            with pytest.raises(ValueError, match=message):
                multiclass.evaluate_metric(cm, name, p="-1")

    def test_zero_diagonal_rate_annihilates(self):
        cm = cm_of([[0, 3], [1, 5]])
        assert lp_multiclass(cm, -1.0) == 0.0


class TestPerfectFitPermutation:
    def test_cyclic_witness(self):
        witness = perfect_fit_permutation(cm_of([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
        assert witness is not None
        assert witness.mapping == (1, 2, 0)
        assert witness.parity == "even"

    def test_identity_witness(self):
        witness = perfect_fit_permutation(cm_of(np.identity(3)))
        assert witness.mapping == (0, 1, 2)
        assert witness.parity == "even"

    def test_swap_witness_is_odd(self):
        witness = perfect_fit_permutation(cm_of([[0, 3], [5, 0]]))
        assert witness.mapping == (1, 0)
        assert witness.parity == "odd"

    def test_non_permutation_returns_none(self):
        assert perfect_fit_permutation(cm_of(GRID3)) is None
        assert perfect_fit_permutation(cm_of([[1, 1], [0, 1]])) is None

    def test_zero_column_returns_none(self):
        assert perfect_fit_permutation(cm_of([[1, 0, 0], [1, 0, 0], [0, 0, 1]])) is None

    def test_one_true_class_behind_two_columns_returns_none(self):
        # every column has one positive cell, but both point at class 0
        assert perfect_fit_permutation(cm_of([[3, 2], [0, 0]])) is None

    def test_random_permutation_counts_round_trip(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            grid = random_permutation_counts(rng, n)
            cm = cm_of(grid)
            witness = perfect_fit_permutation(cm)
            assert witness is not None
            # the witness maps each predicted class back to its true class
            for j, i in enumerate(witness.mapping):
                assert grid[i, j] > 0
            det = generalized_mcc(cm)
            assert abs(det) == 1.0
            assert det == (1.0 if witness.parity == "even" else -1.0)


class TestInvariances:
    METRICS = {
        "generalized_mcc": lambda cm: generalized_mcc(cm),
        "generalized_f1": lambda cm: generalized_f1(cm),
        "generalized_fm": lambda cm: generalized_fm(cm),
        "cramers_phi": lambda cm: cramers_phi(cm),
        "lp_multiclass(-1)": lambda cm: lp_multiclass(cm, -1.0),
        "one_vs_one_mcc": lambda cm: one_vs_one_average(cm, "mcc").value,
        "one_vs_one_f1": lambda cm: one_vs_one_average(cm, "f1").value,
    }

    def test_relabel_and_transpose_and_scale(self):
        rng = np.random.default_rng(36)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            cm = cm_of(random_counts(rng, n))
            perm = list(rng.permutation(n))
            for name, metric in self.METRICS.items():
                base = metric(cm)
                assert metric(relabel(cm, perm)) == pytest.approx(
                    base, abs=1e-12
                ), name
                assert metric(transpose(cm)) == pytest.approx(base, abs=1e-12), name
                assert metric(cm_of(cm.counts * 10)) == pytest.approx(
                    base, abs=1e-12
                ), name

    ORDER_FREE = {
        **{
            f"generalized_{kind}:{outer.name}": (
                lambda cm, score=score, outer=outer: score(cm, outer)
            )
            for kind, score in (("f1", generalized_f1), ("fm", generalized_fm))
            for outer in (ARITHMETIC, HARMONIC, GEOMETRIC)
        },
        "lp_multiclass(-1)": lambda cm: lp_multiclass(cm, -1.0),
        "lp_multiclass(0.5)": lambda cm: lp_multiclass(cm, 0.5),
        "one_vs_one_f1": lambda cm: one_vs_one_average(cm, "f1").value,
        "one_vs_one_mcc": lambda cm: one_vs_one_average(cm, "mcc").value,
        "one_vs_one_lp_four_rate": lambda cm: one_vs_one_average(cm, "lp_four_rate", p=-1.0).value,
    }

    def test_relabel_keeps_every_bit(self):
        # every mean sums with math.fsum, correctly rounded, so these scores do
        # not depend on the class order; generalized_mcc (the LU's pivot order)
        # and cramers_phi (numpy's pairwise sums) still may
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(3, 21))
            cm = cm_of(random_counts(rng, n))
            moved = relabel(cm, rng.permutation(n).tolist())
            for name, metric in self.ORDER_FREE.items():
                assert metric(moved) == metric(cm), (name, cm.counts.tolist())

    def test_smoothing_commutes_with_manual_addition(self):
        from gofmetrics.confusion import smooth

        cm = cm_of(GRID3)
        smoothed = smooth(cm, 0.5)
        manual = cm_of((np.asarray(GRID3) + 0.5).tolist())
        assert generalized_mcc(smoothed) == generalized_mcc(manual)
        assert generalized_f1(smoothed) == generalized_f1(manual)


def _load_script(*parts):
    # a module of the repository that is in no package, loaded by its path
    path = Path(__file__).resolve().parents[1].joinpath(*parts)
    spec = importlib.util.spec_from_file_location(f"{parts[0]}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches_one_lu(monkeypatch, cm):
    """generalized_mcc as the gate decides, against one LU of the whole table.

    Where the gate keeps that LU, the bits are the same.  Where it sends the
    table to the pivot elimination, the kernel's sign is the same, the score is
    within 1e-9 relative where both are normal doubles, and 0.0 where the one
    LU's underflows.  Returns whether the table took the elimination."""
    calls, eliminate = [], multiclass._eliminate

    def spy(*args):
        calls.append(args)
        return eliminate(*args)

    positive = cm.row_sums.all() and cm.col_sums.all()
    with monkeypatch.context() as patch:
        patch.setattr(multiclass, "_eliminate", spy)
        value, kernel = generalized_mcc(cm), positive and multiclass._log_det(cm)
        patch.setattr(multiclass, "_ELIMINATE_MIN_N", math.inf)
        plain, plain_kernel = generalized_mcc(cm), positive and multiclass._log_det(cm)
    if not calls:
        assert value.hex() == plain.hex(), cm.n
        return False
    assert kernel[0] == plain_kernel[0], cm.n
    if min(abs(value), abs(plain)) >= sys.float_info.min:
        assert value == pytest.approx(plain, rel=1e-9, abs=0), cm.n
    if plain == 0.0:
        assert value == 0.0, cm.n
    return True


class TestScoreBounds:
    def test_all_metrics_within_declared_ranges(self):
        rng = np.random.default_rng(37)
        for _ in range(150):
            cm = random_matrix(rng, int(rng.integers(2, 6)))
            assert -1.0 <= generalized_mcc(cm) <= 1.0
            assert 0.0 <= generalized_f1(cm) <= 1.0 + 1e-12
            assert 0.0 <= generalized_fm(cm) <= 1.0 + 1e-12
            assert 0.0 <= cramers_phi(cm) <= 1.0
            assert 0.0 <= lp_multiclass(cm, -1.0) <= 1.0 + 1e-12
            assert -1.0 <= one_vs_one_average(cm, "mcc").value <= 1.0

    def test_determinant_invariants_on_wide_benchmark_tables(self, monkeypatch):
        # the benchmark's five small-table kinds at ImageNet-like class counts,
        # where ordinary tables underflow to 0.0: the score stays in [-1, 1], is
        # +0.0 over an empty row or column, and is +-1 exactly where a witness is.
        # The dense smoothed tables and every table below the gate keep the one
        # LU's bits
        workloads = _load_script("perfbench", "workloads.py")
        rng = np.random.default_rng(300)
        empty = witnessed = eliminated = 0
        for n in (300, 1000):
            for kind in workloads.SMALL_KINDS * 2:
                cm = cm_of(workloads._small_table(rng, n, kind))
                value = generalized_mcc(cm)
                took = assert_matches_one_lu(monkeypatch, cm)
                assert not (took and (kind == "smoothed" or n < multiclass._ELIMINATE_MIN_N))
                eliminated += took
                assert -1.0 <= value <= 1.0, (n, kind)
                if (cm.row_sums == 0).any() or (cm.col_sums == 0).any():
                    assert value == 0.0 and math.copysign(1.0, value) == 1.0, (n, kind)
                    empty += 1
                witness = perfect_fit_permutation(cm)
                if witness is None:
                    assert abs(value) < 1.0, (n, kind)
                else:
                    assert value == (1.0 if witness.parity == "even" else -1.0), (n, kind)
                    witnessed += 1
        # each branch ran: on the four permutation tables, and on the four
        # never_predicted ones and any other with an empty class; and the
        # elimination ran on the sparse tables at n = 1000
        assert empty >= 4 and witnessed == 4 and eliminated >= 4


GEOMETRY_KINDS = {
    "random": random_counts,
    "empty_classes": random_counts_with_empty_classes,
    "positive_marginals": random_positive_marginal_counts,
    "strongly_diagonal": strongly_diagonal_counts,
    "permutation": random_permutation_counts,
    "smoothed": lambda rng, n: random_counts(rng, n, 5) + 0.5,
}


class TestCanonicalCorrelations:
    """N = D_r^-1/2 C D_c^-1/2 has the singular values 1 = s_1 >= s_2 >= ... >= s_n,
    where s_2 ... s_n are the canonical correlations of the true and the
    predicted class, and s_2^2 + ... + s_n^2 = chi2 / total.  So |det N| is
    their product and cramers_phi their quadratic mean: by AM-GM
    log|det N| <= (n - 1) log phi, and ||N||_F^2 = 1 + (n - 1) phi^2."""

    EPS = 2.0**-52

    def check(self, counts):
        cm = cm_of(counts)
        n, phi, eps = cm.n, cramers_phi(cm), self.EPS
        matrix = normalized_matrix(cm)
        sign, logdet = np.linalg.slogdet(matrix)
        if phi == 0:
            # independent truth and prediction: det N is 0, and the LU may leave
            # a residue of rounding size, as on other singular tables
            assert abs(sign) * math.exp(logdet) <= n * eps, counts
        elif sign != 0:
            # phi^2 sums cancelling terms to an absolute error of order eps, so
            # (n - 1) log phi is good to about n eps / phi^2 nats; that allowance
            # also covers the LU's n eps on a well-conditioned N.  The largest
            # excess seen over 50,000 seeded tables was 0.75 of it, at n = 4
            assert logdet <= (n - 1) * math.log(phi) + n * eps / phi**2, counts
        # 4 n eps relative: 0.95 n eps is the largest error seen, at n = 2 (20,000 tables)
        frobenius = float(np.square(matrix).sum())
        assert frobenius == pytest.approx(1 + (n - 1) * phi**2, rel=4 * n * eps, abs=0)
        return sign, logdet

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(sorted(GEOMETRY_KINDS)),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generator_tables(self, kind, n, seed):
        self.check(GEOMETRY_KINDS[kind](np.random.default_rng(seed), n))

    def test_wide_benchmark_tables(self, monkeypatch):
        # n = 300 and 1000, where the score underflows to 0.0: log|det N| is finite
        # on every table that predicts each class, and held below (n - 1) log phi;
        # generalized_mcc agrees with one LU of the whole table, through the pivot
        # elimination on every n = 1000 table that predicts each class
        workloads = _load_script("perfbench", "workloads.py")
        for seed in (1, 2, 3):
            tables, kinds = workloads.wide_tables(seed)
            for counts, kind in zip(tables, kinds):
                sign, logdet = self.check(counts)
                assert (sign != 0) == (kind == "all_predicted"), kind
                took = assert_matches_one_lu(monkeypatch, cm_of(counts))
                assert took == (len(counts) == 1000 and kind == "all_predicted"), kind


# every entry that looks a metric up by name in METRICS
NAME_DOORS = {
    "evaluate_metric": lambda name: evaluate_metric(cm_of(GRID3), name),
    "one_vs_one_average": lambda name: one_vs_one_average(cm_of(GRID3), name),
    "two_class_score": lambda name: two_class_score(CM2, name),
}


@pytest.mark.parametrize("door", NAME_DOORS)
@pytest.mark.parametrize("name", [None, ["x"], 1, b"mcc", ("mcc",)], ids=repr)
def test_metric_name_that_is_no_str_refused_by_name(door, name):
    # a list is unhashable and None cannot be prefixed: each is named instead
    with pytest.raises(ValueError) as info:
        NAME_DOORS[door](name)
    kind = type(name).__name__
    assert str(info.value) == f"metric name must be a str, not the {kind} {name!r}"
