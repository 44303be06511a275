"""Unit tests for confusion-matrix construction and transforms."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics import confusion
from gofmetrics.confusion import (
    ConfusionMatrix,
    SmoothingSpec,
    normalized_matrix,
    relabel,
    smooth,
    transpose,
)
from gofmetrics.means import ARITHMETIC, GEOMETRIC, HARMONIC, MAX, MIN, AveragingSpec
from helpers import random_counts, random_counts_with_empty_classes

GRID3 = [[20, 6, 0], [2, 20, 0], [12, 12, 8]]
OPAQUE = object()


def small_grids():
    side = st.integers(min_value=2, max_value=5)
    return side.flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).filter(lambda g: sum(map(sum, g)) > 0)
    )


class TestFromCounts:
    def test_basic(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        assert cm.n == 3
        assert cm.labels == ("class_0", "class_1", "class_2")
        assert cm.total == 80.0
        assert list(cm.row_sums) == [26.0, 22.0, 32.0]
        assert list(cm.col_sums) == [34.0, 38.0, 8.0]

    def test_custom_labels(self):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]], ["cat", "dog"])
        assert cm.labels == ("cat", "dog")
        assert cm.label_index("dog") == 1
        with pytest.raises(KeyError):
            cm.label_index("bird")

    def test_fractional_cells_accepted(self):
        cm = ConfusionMatrix.from_counts([[1.5, 0.5], [0.5, 1.5]])
        assert cm.total == 4.0

    def test_counts_read_only(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 99

    def test_non_square(self):
        with pytest.raises(ValueError, match="non-square grid"):
            ConfusionMatrix.from_counts([[1, 2, 3], [4, 5, 6]])

    def test_ragged_rows(self):
        with pytest.raises(ValueError, match="non-square grid"):
            ConfusionMatrix.from_counts([[1, 2], [3]])

    def test_negative_cell(self):
        with pytest.raises(ValueError, match="negative cell"):
            ConfusionMatrix.from_counts([[1, 2], [3, -1]])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], ["a", "a"])

    def test_too_small(self):
        with pytest.raises(ValueError, match="n < 2"):
            ConfusionMatrix.from_counts([[5]])

    def test_all_zero(self):
        with pytest.raises(ValueError, match="all cells are zero"):
            ConfusionMatrix.from_counts([[0, 0], [0, 0]])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite cell"):
            ConfusionMatrix.from_counts([[1, np.nan], [0, 1]])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([[1, np.nan], [0, 1]], "non-finite cell at row 0, column 1"),
            ([[1, 0], [np.inf, 1]], "non-finite cell at row 1, column 0"),
            ([[1, 0], [0, -np.inf]], "non-finite cell at row 1, column 1"),
            # non-finite is reported before negative, wherever the cells sit
            ([[-1, 0], [0, np.nan]], "non-finite cell at row 1, column 1"),
            ([[1, 2], [3, -1]], "negative cell at row 1, column 1: -1.0"),
            ([[1, -2.5], [-3, 1]], "negative cell at row 0, column 1: -2.5"),
            ([[0, 0], [0, 0]], "all cells are zero"),
            ([[-0.0, 0], [0, -0.0]], "all cells are zero"),
            # finite cells whose sum overflows name the first row or column
            ([[1e308, 1e308], [0, 1]], "sum of row 0 overflows"),
            # rows before columns: column 0 overflows here too
            ([[1, 0, 0], [1e308, 1e308, 0], [1e308, 0, 0]], "sum of row 1 overflows"),
            ([[1, 1e308], [0, 1e308]], "sum of column 1 overflows"),
            ([[1.5e308, 0], [0, 1.5e308]], "sum of all cells overflows"),
        ],
    )
    def test_cell_messages(self, grid, message):
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_counts(grid)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([["1", "0"], ["0", "1"]], "non-number cell at row 0, column 0: '1'"),
            ([[1, 0], [0, b"1"]], "non-number cell at row 1, column 1: b'1'"),
            ([[True, False], [False, True]], "non-number cell at row 0, column 0: True"),
            (np.eye(2, dtype=bool), f"non-number cell at row 0, column 0: {np.True_!r}"),
            ([[2, True], [0, 1]], "non-number cell at row 0, column 1: True"),
            ([[1, 0], [None, 1]], "non-number cell at row 1, column 0: None"),
            ([[1, 2j], [0, 1]], "non-number cell at row 0, column 1: 2j"),
            (
                np.eye(2, dtype=complex),
                f"non-number cell at row 0, column 0: {np.complex128(1)!r}",
            ),
            # cells float() refuses, which numpy reported as ragged rows
            ([[1, {}], [0, 1]], "non-number cell at row 0, column 1: {}"),
            pytest.param(
                [[1, 0], [OPAQUE, 1]],
                f"non-number cell at row 1, column 0: {OPAQUE!r}",
                id="object-cell",  # the repr holds an address
            ),
        ],
    )
    def test_non_number_cells_rejected(self, grid, message):
        # numpy would read each of these as a count, or fail under another name
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_counts(grid)
        assert str(info.value) == message

    def test_number_cells_accepted(self):
        grid = [[np.int64(3), np.float32(0.5)], [Fraction(1, 4), Decimal("2.5")]]
        assert ConfusionMatrix.from_counts(grid).counts.tolist() == [[3, 0.5], [0.25, 2.5]]
        objects = np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object)
        assert ConfusionMatrix.from_counts(objects).counts.tolist() == [[0.5, 0], [0, 1]]

    @pytest.mark.parametrize("dtype", [float, np.float32, int, np.uint8])
    def test_numeric_array_is_not_scanned(self, monkeypatch, dtype):
        # a float or int array is numbers by its dtype alone
        def scan(grid):
            raise AssertionError("scanned cell by cell")

        monkeypatch.setattr(confusion, "_check_cells", scan)
        cm = ConfusionMatrix.from_counts(np.eye(3, dtype=dtype))
        assert cm.counts.tolist() == np.eye(3).tolist()

    def test_negative_zero_cell_accepted(self):
        cm = ConfusionMatrix.from_counts([[1, -0.0], [0, 1]])
        assert cm.counts[0, 1] == 0.0

    @pytest.mark.parametrize("as_list", [True, False])
    def test_counts_are_a_copy(self, as_list):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        source = grid.tolist() if as_list else grid
        cm = ConfusionMatrix.from_counts(source)
        source[0][0] = 99.0
        assert cm.counts[0, 0] == 1.0
        assert not cm.counts.flags.writeable

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], ["a", "b", "c"])

    def test_string_labels_rejected(self):
        # "ab" would otherwise be split into the labels "a" and "b"
        with pytest.raises(ValueError, match="labels must be a list of names"):
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], "ab")

    @given(small_grids())
    @settings(max_examples=100)
    def test_marginals_match_manual_sums(self, grid):
        cm = ConfusionMatrix.from_counts(grid)
        n = len(grid)
        for i in range(n):
            assert cm.row_sums[i] == sum(grid[i])
        for j in range(n):
            assert cm.col_sums[j] == sum(grid[i][j] for i in range(n))
        assert cm.total == sum(map(sum, grid))


class TestFromLabelPairs:
    def test_hand_tally(self):
        cm = ConfusionMatrix.from_label_pairs(["a", "a", "b"], ["a", "b", "b"])
        assert cm.labels == ("a", "b")
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_sorted_union_of_labels(self):
        # "c" appears only on the predicted side but still gets a row/column
        cm = ConfusionMatrix.from_label_pairs(["b", "a"], ["a", "c"])
        assert cm.labels == ("a", "b", "c")
        assert cm.counts[1, 0] == 1  # true b predicted a
        assert cm.counts[0, 2] == 1  # true a predicted c
        assert cm.row_sums[2] == 0  # nothing is truly c

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ConfusionMatrix.from_label_pairs(["a", "b"], ["a"])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ConfusionMatrix.from_label_pairs([], [])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="n < 2"):
            ConfusionMatrix.from_label_pairs(["a", "a"], ["a", "a"])

    def test_non_string_labels_coerced(self):
        cm = ConfusionMatrix.from_label_pairs([1, 2, 1], [1, 2, 2])
        assert cm.labels == ("1", "2")

    def test_labels_reading_alike_rejected(self):
        # 1 and "1" would both become class "1"
        with pytest.raises(ValueError, match="labels .* both read '1'") as info:
            ConfusionMatrix.from_label_pairs([1, "1", 2], [1, 1, 2])
        assert "1 and '1'" in str(info.value) or "'1' and 1" in str(info.value)

    def test_pair_counts_tally(self):
        # the tally both from_label_pairs and the pairs CSV reader build
        direct = ConfusionMatrix.from_pair_counts({("b", "b"): 2, ("a", "b"): 1, ("c", "a"): 1})
        via_pairs = ConfusionMatrix.from_label_pairs(["b", "a", "b", "c"], ["b", "b", "b", "a"])
        assert direct.labels == via_pairs.labels == ("a", "b", "c")
        assert direct.counts.tolist() == via_pairs.counts.tolist()
        assert direct.counts.tolist() == [[0, 1, 0], [0, 2, 0], [1, 0, 0]]


class TestSmoothing:
    def test_zero_alpha_is_identity(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        assert smooth(cm, SmoothingSpec(0.0)) is cm

    def test_adds_alpha_everywhere(self):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]])
        out = smooth(cm, SmoothingSpec(0.5))
        assert out.counts.tolist() == [[1.5, 0.5], [0.5, 1.5]]
        assert out.total == 4.0
        assert out.labels == cm.labels

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SmoothingSpec(-0.1)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SmoothingSpec(float("inf"))


class TestNormalizedMatrix:
    def test_matches_ratio_form(self):
        # geometric averaging is the counts / sqrt(row_sum * col_sum) matrix
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            cm = ConfusionMatrix.from_counts(random_counts(rng, n))
            ref = oracles.ratio_matrix(cm.counts.tolist())
            assert np.allclose(normalized_matrix(cm), ref, atol=1e-12)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cm = ConfusionMatrix.from_counts(random_counts(rng, 4))
            norm = normalized_matrix(cm)
            assert (norm >= 0).all()
            assert (norm <= 1 + 1e-12).all()

    def test_known_entry(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        # cell (2,2): 8 / sqrt(32 * 8) is exactly 0.5
        assert normalized_matrix(cm)[2, 2] == 0.5

    def test_other_averagings(self):
        cm = ConfusionMatrix.from_counts([[3, 1], [1, 3]])
        arith = normalized_matrix(cm, ARITHMETIC)
        harm = normalized_matrix(cm, HARMONIC)
        geo = normalized_matrix(cm, GEOMETRIC)
        # H <= G <= A cell by cell
        assert (harm <= geo + 1e-15).all()
        assert (geo <= arith + 1e-15).all()

    def test_n(self):
        assert normalized_matrix(ConfusionMatrix.from_counts(GRID3)).shape == (3, 3)

    def test_zero_marginal_returns_zero(self):
        # a class never predicted (column 1) or never present (row 0): the
        # rate over its zero sum is 0, not 0/0 = NaN, under every averaging
        for grid, zero in (
            ([[2, 0, 1], [1, 0, 3], [0, 0, 4]], (slice(None), 1)),
            ([[0, 0], [3, 5]], (0, slice(None))),
        ):
            cm = ConfusionMatrix.from_counts(grid)
            for spec in (HARMONIC, GEOMETRIC, ARITHMETIC, MAX, AveragingSpec.power(0.5)):
                assert (normalized_matrix(cm, spec)[zero] == 0.0).all(), spec

    def test_values_read_only(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        norm = normalized_matrix(cm)
        with pytest.raises(ValueError):
            norm[0, 0] = 2.0

    @staticmethod
    def _tables(seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 7, 12, 25, 40):
            for _ in range(3):
                yield ConfusionMatrix.from_counts(random_counts_with_empty_classes(rng, n))
        # a rate whose reciprocal overflows (a harmonic cell of 2e-310) and two
        # rates whose product underflows (a geometric cell of 1e-200)
        for grid in ([[1e-310, 1], [0, 1]], [[1e-200, 1], [1, 1]]):
            yield ConfusionMatrix.from_counts(grid)

    def test_named_kinds_equal_scalar_loop_bitwise(self):
        # the power exponents -1, 0 and 1 collapse to the named means exactly
        specs = (HARMONIC, GEOMETRIC, ARITHMETIC, MIN, MAX) + tuple(
            AveragingSpec.power(p) for p in (-1.0, 0.0, 1.0)
        )
        for cm in self._tables(10):
            for spec in specs:
                ref = oracles.normalized_loop(cm.counts, spec)
                assert np.array_equal(normalized_matrix(cm, spec), ref), spec

    def test_power_kind_within_four_ulp_of_scalar_loop(self):
        # float_power and Python's ** both call C's pow, so they agree bit for
        # bit where both use one libm; a numpy whose power loop differs in the
        # last bit is allowed 4 ulp of the larger value.  Zeros are exact.
        for cm in self._tables(11):
            for p in (-3.0, -0.5, 0.25, 0.5, 0.9, 2.0):
                got = normalized_matrix(cm, AveragingSpec.power(p))
                ref = oracles.normalized_loop(cm.counts, AveragingSpec.power(p))
                assert np.array_equal(got == 0, ref == 0), p
                ulp = np.spacing(np.maximum(got, ref))
                assert (np.abs(got - ref) <= 4 * ulp).all(), p

    def test_power_kind_near_zero_is_geometric(self):
        # M_p departs from the geometric mean by about p * log(rate)^2 / 8,
        # under 1e-12 of it at p = 1e-17 for every rate these tables hold
        for cm in self._tables(12):
            geo = normalized_matrix(cm, GEOMETRIC)
            for p in (5e-324, -5e-324, 1e-17, -1e-17):
                got = normalized_matrix(cm, AveragingSpec.power(p))
                assert np.allclose(got, geo, rtol=1e-12, atol=0), p


class TestTranspose:
    def test_involution(self):
        cm = ConfusionMatrix.from_counts(GRID3, ["x", "y", "z"])
        back = transpose(transpose(cm))
        assert np.array_equal(back.counts, cm.counts)
        assert back.labels == cm.labels

    def test_swaps_cells(self):
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        assert transpose(cm).counts.tolist() == [[1, 3], [2, 4]]

    def test_commutes_with_normalization_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cm = ConfusionMatrix.from_counts(random_counts(rng, 4))
            a = normalized_matrix(transpose(cm))
            b = normalized_matrix(cm).T
            assert np.array_equal(a, b)


class TestRelabel:
    def test_swap_example(self):
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]], ["a", "b"])
        out = relabel(cm, [1, 0])
        assert out.counts.tolist() == [[4, 3], [2, 1]]
        assert out.labels == ("b", "a")

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(10)
        cm = ConfusionMatrix.from_counts(random_counts(rng, 5))
        perm = list(rng.permutation(5))
        inverse = [perm.index(k) for k in range(5)]
        back = relabel(relabel(cm, perm), inverse)
        assert np.array_equal(back.counts, cm.counts)
        assert back.labels == cm.labels

    def test_identity_permutation(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        out = relabel(cm, [0, 1, 2])
        assert np.array_equal(out.counts, cm.counts)

    def test_non_bijection_rejected(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        with pytest.raises(ValueError, match="bijection"):
            relabel(cm, [0, 0, 1])
        with pytest.raises(ValueError, match="bijection"):
            relabel(cm, [0, 1])

