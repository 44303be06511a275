"""Unit tests for confusion-matrix construction and transforms."""

from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics import confusion
from gofmetrics.confusion import ConfusionMatrix, normalized_matrix, relabel, smooth, transpose
from gofmetrics.means import GEOMETRIC
from helpers import pair_mean_tables, random_counts

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

    def test_default_labels_passed_in(self):
        # the defaults skip the duplicate scan; the same names passed in take it
        labels = ["class_0", "class_1", "class_2"]
        assert ConfusionMatrix.from_counts(GRID3, labels).labels == tuple(labels)
        assert ConfusionMatrix.from_counts(GRID3).labels == tuple(labels)
        with pytest.raises(ValueError, match="duplicate labels"):
            ConfusionMatrix.from_counts(GRID3, ["class_0", "class_1", "class_0"])

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
            # an int or Fraction past the largest double, which float() cannot read
            ([[1, 0], [0, 10**400]], "cell at row 1, column 1 is past the double range"),
            ([[1, -(10**400)], [0, 1]], "cell at row 0, column 1 is past the double range"),
            ([[Fraction(10**400), 0], [0, 1]], "cell at row 0, column 0 is past the double range"),
            # -inf + inf in the validating sum is NaN, which must not warn first
            ([[-np.inf, np.inf], [0, 1]], "non-finite cell at row 0, column 0"),
            # a scalar or None, which numpy reads as a 0-d array
            (5, "non-square grid: shape ()"),
            (None, "non-square grid: shape ()"),
            # refused as one too, before numpy's cast warns or overflows
            (np.complex128(1), "non-square grid: shape ()"),
            pytest.param(10**400, "non-square grid: shape ()", id="int-past-the-double-range"),
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
            # rows whose items are characters, bytes or keys rather than cells
            ([[1, 0], "ab"], "row 1 is a str, not a sequence of numbers"),
            ([[1, 0], b"ab"], "row 1 is a bytes, not a sequence of numbers"),
            ([{"a": 1}, [0, 1]], "row 0 is a dict, not a sequence of numbers"),
            # a cell that is itself a list, which numpy would read as a third axis
            ([[[1], [2]], [[3], [4]]], "non-number cell at row 0, column 0: [1]"),
            ([[1, 0], [0, [1]]], "non-number cell at row 1, column 1: [1]"),
            # a grid whose items are keys or characters rather than rows
            ({0: [1, 0], 1: [0, 1]}, "grid is a dict, not a sequence of rows"),
            ({"a": [1, 0], "b": [0, 1]}, "grid is a dict, not a sequence of rows"),
            (
                MappingProxyType({0: [1, 0], 1: [0, 1]}),
                "grid is a mappingproxy, not a sequence of rows",
            ),
            ("ab", "grid is a str, not a sequence of rows"),
            (b"ab", "grid is a bytes, not a sequence of rows"),
            # byte buffers, read as their byte values: these rows built the identity table
            (
                [bytearray(b"\x01\x00"), bytearray(b"\x00\x01")],
                "row 0 is a bytearray, not a sequence of numbers",
            ),
            ([[1, 0], memoryview(b"\x00\x01")], "row 1 is a memoryview, not a sequence of numbers"),
            (bytearray(b"ab"), "grid is a bytearray, not a sequence of rows"),
            (memoryview(b"ab"), "grid is a memoryview, not a sequence of rows"),
            # 0-d arrays, which numpy cannot iterate
            (np.array(None), "grid is a ndarray, not a sequence of rows"),
            ([[1, 0], np.array(2.0)], "row 1 is a ndarray, not a sequence of numbers"),
            # rows that are no iterable, which numpy reads as the cells of a 1-d grid
            ([[1, 0], 3], "row 1 is a int, not a sequence of numbers"),
            ([[1, 0], None], "row 1 is a NoneType, not a sequence of numbers"),
            ([1.0, np.complex128(1)], "row 0 is a float, not a sequence of numbers"),
        ],
    )
    def test_non_number_cells_rejected(self, grid, message):
        # numpy would read each of these as a count, or fail under another name
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_counts(grid)
        assert str(info.value) == message

    def test_index_only_cell_accepted(self):
        # float() and numpy read a cell through __index__ alone
        class Count:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        cm = ConfusionMatrix.from_counts([[Count(3), Count(0)], [Count(1), Count(2)]])
        assert cm.counts.tolist() == [[3.0, 0.0], [1.0, 2.0]]

    def test_number_cells_accepted(self):
        grid = [[np.int64(3), np.float32(0.5)], [Fraction(1, 4), Decimal("2.5")]]
        assert ConfusionMatrix.from_counts(grid).counts.tolist() == [[3, 0.5], [0.25, 2.5]]
        objects = np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object)
        assert ConfusionMatrix.from_counts(objects).counts.tolist() == [[0.5, 0], [0, 1]]
        # a grid or rows that are iterators, read once: the same table as the list
        for grid in (
            iter([[1, 0], [0, 1]]),
            (row for row in [[1, 0], [0, 1]]),
            [iter([1, 0]), iter([0, 1])],
            [map(int, "10"), map(int, "01")],
        ):
            assert ConfusionMatrix.from_counts(grid).counts.tolist() == [[1, 0], [0, 1]]

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

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
    @pytest.mark.parametrize("kind", ["matrix", "int"])
    def test_counts_are_a_copy_of_a_matrix_or_an_int_array(self, kind):
        # numpy reads a float matrix as a view of it, so 0.0 is not added in
        # place there, and an int array as a new array, in which it is
        grid = np.array([[1.0, -0.0], [3.0, 4.0]])
        source = np.asmatrix(grid) if kind == "matrix" else grid.astype(int)
        cm = ConfusionMatrix.from_counts(source)
        assert np.signbit(source[0, 1]) == (kind == "matrix")
        source[0, 0] = 99
        assert type(cm.counts) is np.ndarray and cm.counts.tolist() == [[1.0, 0.0], [3.0, 4.0]]
        assert not np.signbit(cm.counts).any()

    def test_total_is_the_sum_of_the_counts(self):
        # fractional cells whose sum depends on the order numpy adds them in,
        # so a transform that kept its source's total would read apart
        rng = np.random.default_rng(18)
        cm = ConfusionMatrix.from_counts(random_counts(rng, 12) + rng.uniform(0.01, 1.0, (12, 12)))
        tables = [
            cm,
            ConfusionMatrix.from_pair_counts({("a", "a"): 0.1, ("a", "b"): 0.7, ("b", "b"): 0.2}),
            smooth(cm, 0.3),
            transpose(cm),
            relabel(cm, list(range(12))[::-1]),
        ]
        for table in tables:
            assert table.total == float(table.counts.sum())

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], ["a", "b", "c"])

    def test_string_labels_rejected(self):
        # "ab" would otherwise be split into the labels "a" and "b"
        with pytest.raises(ValueError, match="labels must be a list of names"):
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], "ab")

    @pytest.mark.parametrize(
        "labels, kind",
        [
            (b"ab", "bytes"),
            ({"a": 1, "b": 2}, "dict"),
            (bytearray(b"ab"), "bytearray"),
            (memoryview(b"ab"), "memoryview"),
            (5, "int"),
            (2.5, "float"),
            (np.array(5), "ndarray"),
        ],
    )
    def test_bytes_and_mapping_labels_rejected(self, labels, kind):
        # a byte buffer would read as the classes '97' and '98', a mapping by
        # its keys, and a non-iterable has no items to read
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_counts([[1, 0], [0, 1]], labels)
        assert str(info.value) == f"labels must be a list of names, not the {kind} {labels!r}"

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
        # a key is any tuple of two labels, a named one too
        Pair = namedtuple("Pair", "true predicted")
        named = ConfusionMatrix.from_pair_counts(
            {Pair("b", "b"): 2, Pair("a", "b"): 1, Pair("c", "a"): 1}
        )
        assert named.counts.tolist() == direct.counts.tolist()

    @pytest.mark.parametrize("count", ["3", True, None])
    def test_pair_count_that_is_no_number_rejected(self, count):
        # numpy would read "3" as 3.0 and True as 1.0
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_pair_counts({("a", "b"): count, ("b", "b"): 2})
        assert str(info.value) == f"count of ('a', 'b') is {count!r}, not a number"

    @pytest.mark.parametrize(
        "true_labels, predicted_labels, message",
        [
            (5, 6, "true_labels must be a list of labels, not the int 5"),
            ("aab", "abb", "true_labels must be a list of labels, not the str 'aab'"),
            (["a"], "a", "predicted_labels must be a list of labels, not the str 'a'"),
            ([97, 98], b"ab", "predicted_labels must be a list of labels, not the bytes b'ab'"),
            (["a", "b"], {"a": 1, "b": 2},
             "predicted_labels must be a list of labels, not the dict {'a': 1, 'b': 2}"),
            (["a"], None, "predicted_labels must be a list of labels, not the NoneType None"),
            (np.array(5), ["a"], "true_labels must be a list of labels, not the ndarray array(5)"),
        ],
    )
    def test_label_sequence_that_is_no_list_rejected(
        self, true_labels, predicted_labels, message
    ):
        # the rule `from_counts` applies to its labels: a str would be read as
        # its characters, bytes as byte values, a mapping as its keys
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_label_pairs(true_labels, predicted_labels)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "key",
        # a frozenset's repr orders its items by the str hash seed, so its id is fixed
        [
            "ab",
            pytest.param(frozenset("ab"), id="frozenset({'a', 'b'})"),
            ("a", "b", "c"),
            ("a",),
            5,
        ],
        ids=repr,
    )
    def test_pair_count_key_that_is_no_pair_rejected(self, key):
        # a str or a frozenset of two labels would be unpacked as a pair
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_pair_counts({("a", "a"): 1, key: 2})
        kind = type(key).__name__
        assert str(info.value) == f"key must be a (true, predicted) pair, not the {kind} {key!r}"

    def test_pair_count_past_the_double_range_rejected(self):
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_pair_counts({("a", "a"): 1, ("a", "b"): 10**400})
        assert str(info.value) == "count of ('a', 'b') is past the double range"

    @pytest.mark.parametrize(
        "pair_counts",
        [[(("a", "b"), 1)], (("a", "b"), 1), 5, None, "ab", b"ab"],
        ids=repr,
    )
    def test_pair_counts_that_are_no_mapping_rejected(self, pair_counts):
        # a list has no values, a str's characters are no pairs, and an int or
        # None no keys at all
        with pytest.raises(ValueError) as info:
            ConfusionMatrix.from_pair_counts(pair_counts)
        kind = type(pair_counts).__name__
        assert str(info.value) == (
            "pair_counts must be a mapping of (true, predicted) pairs to counts, "
            f"not the {kind} {pair_counts!r}"
        )


class TestSmoothing:
    def test_zero_alpha_is_identity(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        assert smooth(cm, 0.0) is cm

    def test_adds_alpha_everywhere(self):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]])
        out = smooth(cm, 0.5)
        assert out.counts.tolist() == [[1.5, 0.5], [0.5, 1.5]]
        # alpha follows from_counts' cell rule, which admits these
        for alpha in (Fraction(1, 2), Decimal("0.5"), np.float32(0.5)):
            assert smooth(cm, alpha).counts.tolist() == out.counts.tolist()
        assert out.total == 4.0
        assert out.labels == cm.labels

    def test_negative_alpha_rejected(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        with pytest.raises(ValueError, match="non-negative"):
            smooth(cm, -0.1)

    def test_non_finite_alpha_rejected(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        with pytest.raises(ValueError, match="finite"):
            smooth(cm, float("inf"))

    def test_alpha_past_the_double_range_rejected(self):
        # an int or Fraction that float() cannot read is no finite double either
        cm = ConfusionMatrix.from_counts(GRID3)
        for alpha in (10**400, Fraction(-(10**400))):
            with pytest.raises(ValueError, match="alpha must be finite"):
                smooth(cm, alpha)

    @pytest.mark.parametrize("alpha", [True, np.True_, "1", None])
    def test_alpha_that_is_no_number_rejected(self, alpha):
        # a bool would add 0 or 1 to every cell
        cm = ConfusionMatrix.from_counts([[3, 1], [1, 2]])
        with pytest.raises(ValueError) as info:
            smooth(cm, alpha)
        assert str(info.value) == f"alpha is {alpha!r}, not a number"


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

    def test_n(self):
        assert normalized_matrix(ConfusionMatrix.from_counts(GRID3)).shape == (3, 3)

    def test_zero_marginal_returns_zero(self):
        # a class never predicted (column 1) or never present (row 0): the
        # rate over its zero sum is 0, not 0/0 = NaN
        for grid, zero in (
            ([[2, 0, 1], [1, 0, 3], [0, 0, 4]], (slice(None), 1)),
            ([[0, 0], [3, 5]], (0, slice(None))),
        ):
            cm = ConfusionMatrix.from_counts(grid)
            assert (normalized_matrix(cm)[zero] == 0.0).all()

    def test_values_read_only(self):
        cm = ConfusionMatrix.from_counts(GRID3)
        norm = normalized_matrix(cm)
        with pytest.raises(ValueError):
            norm[0, 0] = 2.0

    def test_named_kinds_equal_scalar_loop_bitwise(self):
        # N equals the scalar geometric mean of each cell's two rates, its
        # fallback for a product that underflows (a cell of 1e-200) included
        for cm in pair_mean_tables(10):
            ref = oracles.normalized_loop(cm.counts, GEOMETRIC)
            assert np.array_equal(normalized_matrix(cm), ref)


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

    @pytest.mark.parametrize(
        "permutation, message",
        [
            ([1.7, 0.2], "permutation[0] is 1.7, not an integer"),
            ([1, True], "permutation[1] is True, not an integer"),
            ([np.float64(1.0), 0], f"permutation[0] is {np.float64(1.0)!r}, not an integer"),
            (5, "permutation must be a sequence of integers, not the int 5"),
            (None, "permutation must be a sequence of integers, not the NoneType None"),
            (np.array(1), "permutation must be a sequence of integers, not the ndarray array(1)"),
            ("10", "permutation must be a sequence of integers, not the str '10'"),
            (b"\x01\x00", r"permutation must be a sequence of integers, not the bytes b'\x01\x00'"),
            ({1: 0, 0: 1}, "permutation must be a sequence of integers, not the dict {1: 0, 0: 1}"),
        ],
    )
    def test_non_integer_entries_rejected(self, permutation, message):
        # int() would truncate the floats to the order [1, 0], and bytes or a
        # mapping read item by item would give it too
        cm = ConfusionMatrix.from_counts([[1, 2], [3, 4]])
        with pytest.raises(ValueError) as info:
            relabel(cm, permutation)
        assert str(info.value) == message

