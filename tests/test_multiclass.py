"""Unit tests for the multi-class scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics import multiclass
from gofmetrics.binary import BinaryView, f1_binary, lp_four_rate_score, mcc_binary
from gofmetrics.confusion import (
    ConfusionMatrix,
    normalized_matrix,
    relabel,
    transpose,
)
from gofmetrics.means import (
    ARITHMETIC,
    GEOMETRIC,
    HARMONIC,
    MAX,
    MIN,
    AveragingSpec,
    apply_average,
    geometric_mean,
    harmonic_mean,
    power_mean,
)
from gofmetrics.multiclass import (
    BINARY_METRIC_NAMES,
    METRICS,
    cramers_phi,
    generalized_f1,
    generalized_fm,
    generalized_mcc,
    lp_multiclass,
    one_vs_one_average,
    perfect_fit_permutation,
)
from helpers import (
    random_counts,
    random_counts_with_empty_classes,
    random_matrix,
    random_permutation_counts,
    random_positive_marginal_counts,
    strongly_diagonal_counts,
)

GRID3 = [[20, 6, 0], [2, 20, 0], [12, 12, 8]]
GRID3B = [[5, 6, 2], [2, 8, 11], [8, 2, 10]]


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
                mcc_binary(BinaryView(cm)), abs=1e-10
            )

    def test_zero_column_forces_exact_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            grid = random_counts(rng, 3)
            wide = np.zeros((4, 4))
            wide[:3, :3] = grid
            wide[3, 0] = float(rng.integers(1, 10))  # class 3 exists, never predicted
            assert generalized_mcc(cm_of(wide)) == 0.0

    def test_bound_violation_raises(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        cm = cm_of(GRID3)
        # log|det C| such that log|det N| = 0.5 once the marginals are taken off
        marginals = 0.5 * (np.log(cm.row_sums).sum() + np.log(cm.col_sums).sum())
        monkeypatch.setattr(np.linalg, "slogdet", lambda m: (1.0, marginals + 0.5))
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

    @pytest.mark.parametrize("n", [2, 3, 50, 300])
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

    def test_power_outer_above_one_rejected(self):
        with pytest.raises(ValueError, match="p must be <= 1"):
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
            for outer in (ARITHMETIC, GEOMETRIC):
                assert generalized_fm(cm, outer) == apply_average(outer, diag)

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
                abs(mcc_binary(BinaryView(cm))), abs=1e-10
            )

    def test_matches_reference_at_200(self):
        counts = strongly_diagonal_counts(np.random.default_rng(201), 200)
        assert cramers_phi(cm_of(counts)) == pytest.approx(
            oracles.cramers_phi_ref(counts), rel=1e-12
        )

    @pytest.mark.parametrize("n", [2, 7, 20, 180])
    def test_one_block_is_the_whole_table_expression(self, n):
        # 180 * 180 cells still fit in one block
        counts = random_counts_with_empty_classes(np.random.default_rng(n), n)
        rows, cols = counts.sum(axis=1), counts.sum(axis=0)
        diff = counts - rows[:, None] * (cols / counts.sum())
        row_div, col_div = np.where(rows > 0, rows, 1.0), np.where(cols > 0, cols, 1.0)
        terms = (diff / row_div[:, None]) * (diff / col_div)
        whole = min(1.0, math.sqrt(float(terms.sum()) / (n - 1)))
        assert cramers_phi(cm_of(counts)) == whole

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
            oracles.cramers_phi_exact(grid), abs=1e-12
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
            oracles.cramers_phi_exact(grid), abs=1e-12
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
            oracles.cramers_phi_exact(grid), abs=1e-12
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
            assert value == pytest.approx(oracles.cramers_phi_exact(grid), abs=1e-12)
            if n == 2:
                assert value == pytest.approx(abs(mcc_binary(BinaryView(cm))), abs=1e-12)
            checked += 1

    def test_zero_marginal_cells_contribute_nothing(self):
        # column 1 never predicted: expected counts there are zero
        cm = cm_of([[3, 0, 1], [2, 0, 2], [1, 0, 5]])
        assert 0.0 <= cramers_phi(cm) <= 1.0


def _one_vs_one_tables():
    # seeded tables at n = 2..30: empty rows and columns, smoothed fractional
    # counts, permutation tables, and counts scaled far out of the unit range
    rng = np.random.default_rng(808)
    kinds = {
        "empty classes": lambda n: random_counts_with_empty_classes(rng, n),
        "smoothed": lambda n: random_counts(rng, n, 5) + rng.uniform(0.01, 1.0),
        "permutation": lambda n: random_permutation_counts(rng, n),
        "scaled by 2^600": lambda n: random_counts(rng, n) * 2.0**600,
        "scaled by 2^-600": lambda n: random_counts(rng, n) * 2.0**-600,
    }
    for kind, make in kinds.items():
        for n in (2, 30, *rng.integers(3, 30, size=2).tolist()):
            yield f"{kind}, n={n}", cm_of(make(n))


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
            for outer in outers:
                for p in exponents:
                    value = one_vs_one_average(cm, metric, outer, p).value
                    expected = oracles.one_vs_one_loop(cm, metric, outer, p)
                    assert value == expected, (name, outer.to_string(), p)

    def test_no_matrix_per_pair(self, monkeypatch):
        # the loop reads the table's own cells: no 2x2 sub-table per pair
        cm = cm_of(random_counts(np.random.default_rng(12), 12))
        built = []
        init = ConfusionMatrix.__init__

        def counted_init(self, *args, **kwargs):
            built.append("ConfusionMatrix")
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConfusionMatrix, "__init__", counted_init)
        for metric in BINARY_METRIC_NAMES:
            p = -1.0 if METRICS["one_vs_one_" + metric].needs_p else None
            one_vs_one_average(cm, metric, p=p)
        assert built == []


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
        pair01 = mcc_binary(BinaryView(cm_of([[20, 6], [2, 20]])))
        pair02 = mcc_binary(BinaryView(cm_of([[20, 0], [12, 8]])))
        pair12 = mcc_binary(BinaryView(cm_of([[20, 0], [12, 8]])))
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
            assert one_vs_one_average(cm, "mcc").value == mcc_binary(BinaryView(cm))

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
                v = BinaryView(sub)
                per_pair.append(
                    apply_average(outer, (f1_binary(v), f1_binary(v.swapped())))
                )
            scores[outer.to_string()] = apply_average(outer, per_pair)
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

    def test_p_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="takes no exponent"):
            one_vs_one_average(cm_of(GRID3), "f1", p=-1.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown binary metric"):
            one_vs_one_average(cm_of(GRID3), "accuracy")

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
        for _ in range(100):
            cm = cm_of(random_counts_with_empty_classes(rng, int(rng.integers(2, 30))))
            precision, recall = oracles.diagonal_rates_loop(cm.counts)
            f1 = tuple(harmonic_mean((r, s)) for r, s in zip(recall, precision))
            fm = tuple(geometric_mean((r, s)) for r, s in zip(recall, precision))
            for outer in outers:
                assert generalized_f1(cm, outer) == apply_average(outer, f1)
                assert generalized_fm(cm, outer) == apply_average(outer, fm)
            for p in (-math.inf, -1.0, -0.5, 0.0, 0.5, 1.0):
                assert lp_multiclass(cm, p) == power_mean(tuple(precision + recall), p)


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
            b = lp_four_rate_score(BinaryView(cm), -1.0)
            assert a == pytest.approx(b, abs=1e-12)

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError, match="p must be <= 1"):
            lp_multiclass(cm_of(GRID3), 1.1)

    def test_p_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN exponent"):
            lp_multiclass(cm_of(GRID3), math.nan)

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

    def test_smoothing_commutes_with_manual_addition(self):
        from gofmetrics.confusion import SmoothingSpec, smooth

        cm = cm_of(GRID3)
        smoothed = smooth(cm, SmoothingSpec(0.5))
        manual = cm_of((np.asarray(GRID3) + 0.5).tolist())
        assert generalized_mcc(smoothed) == generalized_mcc(manual)
        assert generalized_f1(smoothed) == generalized_f1(manual)


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
