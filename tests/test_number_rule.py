"""The one number rule, `means._no_number`, at every entry that takes a caller's number.

Three bounded properties hold the library's table doors, and a fourth the
matrix CSV door, to the contract that `test_cli.py::TestJsonInputProperty`
holds the JSON door to: an input either builds a table whose counts are the
float of its cells, -0.0 read as 0.0, or is refused by a `ValueError` (an
`InputError` from the CLI's reader) whose message matches one of a fixed list
of forms, each naming a cell, a line, a pair, an argument or a condition of
the whole table.

- `test_grid_is_its_cells_or_refused_by_name`: `ConfusionMatrix.from_counts`'
  grids;
- `test_tally_is_its_counts_or_refused_by_name`: `ConfusionMatrix.from_pair_counts`'
  tallies, arguments that are no mapping included;
- `test_alpha_smooths_or_is_refused_by_name`: `smooth`'s alpha;
- `test_matrix_csv_is_its_numbers_or_refused_by_line`: `cli.parse_matrix_csv`'s
  text, with or without a header row and a label column, with blank lines and
  padding.
"""

import contextlib
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gofmetrics.cli import InputError, parse_matrix_csv
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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda x: power_mean((x, 1.0), 1.0), "value 0 is past the double range"),
        (
            lambda x: ConfusionMatrix.from_counts([[1, 0], [0, x]]),
            "cell at row 1, column 1 is past the double range",
        ),
        (
            lambda x: ConfusionMatrix.from_pair_counts({("a", "a"): x, ("b", "b"): 1}),
            "count of ('a', 'a') is past the double range",
        ),
    ],
    ids=["power_mean", "from_counts", "from_pair_counts"],
)
def test_decimal_past_the_double_range_refused_as_an_int_is(build, message):
    # float() reads Decimal("1e400") as inf, where it refuses 10**400; the
    # finite number is past the doubles either way
    for past in (Decimal("1e400"), 10**400):
        with pytest.raises(ValueError) as info:
            build(past)
        assert str(info.value) == message, past


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


@pytest.mark.parametrize(
    "values",
    [b"\x01\x02", bytearray(b"\x01\x03"), memoryview(b"\x02\x04"), {1.0: 0, 3.0: 0}, 5.0,
     np.array(5.0)],
    ids=lambda values: type(values).__name__,
)
def test_mean_values_that_are_no_list_refused_by_name(values):
    # the package's list rule: read item by item, a byte buffer gives byte values and a
    # mapping its keys, and a number or a 0-d array gives no values at all
    kind = type(values).__name__
    with pytest.raises(ValueError) as info:
        power_mean(values, 1.0)
    assert str(info.value) == f"values must be a list of numbers, not the {kind} {values!r}"


def test_mean_values_of_an_iterable_read_once():
    assert power_mean(iter([1.0, 2.0]), 1.0) == 1.5
    assert power_mean((v for v in (1, 4)), 0.0) == 2.0
    assert power_mean({2.0}, 1.0) == 2.0  # no sequence, so no values[0]
    with pytest.raises(ValueError, match="empty tuple"):
        power_mean(iter([]), 1.0)


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


# the edges past changes found: a signed zero, the least double and 1e300 build
# tables; 1e308, whose sums overflow, a signalling NaN, the infinities, an int
# or a Decimal past the double range, a negative count, byte buffers and 0-d
# arrays do not
NUMBERS = st.one_of(
    st.integers(0, 40),
    st.floats(0, 1e6),
    st.sampled_from([-0.0, 5e-324, 1e300, Fraction(1, 3), Decimal("2.5"), np.float32(0.5)]),
)
EDGES = [
    1e308, Decimal("sNaN"), math.inf, -math.inf, 10**400, Decimal("1e400"), -1,
    bytearray(b"1"), memoryview(b"1"), np.array(2.0), np.array(None),
]
ODD = st.sampled_from(EDGES + NON_NUMBERS)
CELLS = st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD)

# a refusal's message: a cell, pair or argument by its place, or a condition of
# the whole table
TABLE_REFUSALS = [
    r"non-finite cell at row (?P<row>\d+), column (?P<column>\d+)",
    r"negative cell at row (?P<row>\d+), column (?P<column>\d+): -\S+",
    r"sum of (row|column) \d+ overflows",
    r"sum of all cells overflows",
    r"n < 2: need at least two classes, got [01]",
    r"all cells are zero",
]
GRID_REFUSALS = TABLE_REFUSALS + [
    r"grid is a \w+, not a sequence of rows",
    r"row (?P<row>\d+) is a \w+, not a sequence of numbers",
    r"non-number cell at row (?P<row>\d+), column (?P<column>\d+): (?P<value>.+)",
    r"cell at row (?P<row>\d+), column (?P<column>\d+) is past the double range",
    r"non-square grid: rows have unequal lengths",
    r"non-square grid: shape \([\d, ]*\)",
]
TALLY_REFUSALS = TABLE_REFUSALS + [
    r"pair_counts must be a mapping of \(true, predicted\) pairs to counts, not the \w+ .+",
    r"key must be a \(true, predicted\) pair, not the \w+ .+",
    r"count of \(.+\) is .+, not a number",
    r"count of \(.+\) is past the double range",
    r"labels .+ and .+ both read '.+'",
]
ALPHA_REFUSALS = [
    r"alpha is .+, not a number",
    r"alpha must be finite",
    r"alpha must be non-negative",
    r"sum of (row|column) \d+ overflows",
    r"sum of all cells overflows",
]


def table_or_refusal(build, refusals):
    # the table build() returns, or its refusal's match to one of the forms
    try:
        return build()
    except ValueError as exc:
        match = next(filter(None, (re.fullmatch(f, str(exc), re.DOTALL) for f in refusals)), None)
        assert match, str(exc)
        return match


def hexes(rows):
    return [[cell.hex() for cell in row] for row in rows]


def read(rows):
    # each cell as its double, -0.0 as 0.0
    return hexes([float(cell) + 0.0 for cell in row] for row in rows)


@st.composite
def grids(draw):
    n = draw(st.sampled_from([2, 3, 1]))
    row = st.lists(CELLS, min_size=n, max_size=n)
    rows = st.one_of(row, row, row, st.lists(CELLS, max_size=n + 1), ODD)  # ragged, or no row
    return draw(st.one_of(st.lists(rows, min_size=n, max_size=n), st.just(draw(ODD))))


@given(grids())
@example([[1e308, 0], [0, 1e308]])  # each row and column in range, their total not
@settings(max_examples=80, deadline=None)
def test_grid_is_its_cells_or_refused_by_name(grid):
    result = table_or_refusal(lambda: ConfusionMatrix.from_counts(grid), GRID_REFUSALS)
    if isinstance(result, ConfusionMatrix):
        assert hexes(result.counts.tolist()) == read(grid)
        return
    place = result.groupdict()
    if place.get("row"):  # the named row or cell is there, and reads as named
        item = grid[int(place["row"])]
        if place.get("column"):
            item = item[int(place["column"])]
        if place.get("value"):
            assert repr(item) == place["value"]
    if result.string.endswith("unequal lengths"):
        assert len({len(row) for row in grid}) > 1


LABELS = st.sampled_from(["a", "b", "c", 1, "1"])
KEYS = st.one_of(st.tuples(LABELS, LABELS), st.sampled_from(["ab", 5, ("a",), ("a", "b", "c")]))
TALLIES = st.dictionaries(KEYS, CELLS, max_size=5)
NO_MAPPINGS = st.one_of(
    TALLIES.map(lambda tally: list(tally.items())),
    TALLIES.map(set),
    st.sampled_from([None, 5, "ab", b"ab", np.array(3)]),
)


@given(st.one_of(TALLIES, TALLIES, NO_MAPPINGS))
@example({("a", "a"): 1e308, ("b", "b"): 1e308})  # each row and column in range, their total not
@settings(max_examples=80, deadline=None)
def test_tally_is_its_counts_or_refused_by_name(tally):
    cm = table_or_refusal(lambda: ConfusionMatrix.from_pair_counts(tally), TALLY_REFUSALS)
    if isinstance(cm, ConfusionMatrix):
        assert cm.labels == tuple(sorted({str(label) for pair in tally for label in pair}))
        where = {label: i for i, label in enumerate(cm.labels)}
        expected = [[0.0] * cm.n for _ in cm.labels]
        for (true, predicted), count in tally.items():
            expected[where[str(true)]][where[str(predicted)]] = count
        assert hexes(cm.counts.tolist()) == read(expected)


@given(st.one_of(NUMBERS, st.floats(), ODD))
@example(5e307)  # each smoothed row and column in range, their total not
@settings(max_examples=100, deadline=None)
def test_alpha_smooths_or_is_refused_by_name(alpha):
    cm = table_or_refusal(lambda: smooth(CM3, alpha), ALPHA_REFUSALS)
    if isinstance(cm, ConfusionMatrix):
        assert cm.labels == CM3.labels
        assert hexes(cm.counts.tolist()) == read(CM3.counts + float(alpha))


# what a matrix CSV refusal says after "<path>: ": a cell by its line and data
# column (1-based, the label column not counted), or a condition of the layout
# or of the whole table; a sum that overflows keeps its grid index
MATRIX_CSV_REFUSALS = [
    r"empty file",
    r"header but no data rows",
    r"non-numeric cell at line (?P<line>\d+), column (?P<column>\d+)",
    r"non-finite cell at line (?P<line>\d+), column (?P<column>\d+)",
    r"negative cell at line (?P<line>\d+), column (?P<column>\d+): (?P<value>-\S+)",
    r"row labels \[.*\] do not match header \[.*\]",
    r"label count \d+ does not match grid side \d+",
    r"duplicate labels",
    r"non-square grid: shape \(\d+, \d+\)",
    r"n < 2: need at least two classes, got [01]",
    r"sum of (row|column) \d+ overflows",
    r"sum of all cells overflows",
    r"all cells are zero",
]
# a cell as a file spells it: numbers, the edges past changes found, and the
# number rule's non-numbers (an object's text holds its address, so it is left out)
NUMBER_TEXTS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 40).map(str),
    st.floats(0, 1e6).map(repr),
    st.sampled_from(["-1", "-0.0", "nan", "inf", "1e400", "5e-324", "1e300"]),
)
CELL_TEXTS = st.one_of(
    NUMBER_TEXTS,
    NUMBER_TEXTS,
    NUMBER_TEXTS,
    NUMBER_TEXTS,
    st.sampled_from([""] + [str(v) for v in NON_NUMBERS if type(v) is not object]),
)


def is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


@st.composite
def matrix_csv_texts(draw):
    # the lines of a file and the data cells by (line, column); a header-less
    # file draws its first row from numbers, since a first row holding a
    # non-number is a header by the reader's rule
    n = draw(st.sampled_from([2, 3, 2, 3, 1]))
    header = draw(st.booleans())
    label_column = header and draw(st.booleans())
    distinct = st.permutations("abc")
    labels = draw(st.one_of(distinct, distinct, st.lists(st.sampled_from("ab"), min_size=3)))
    labels = labels[:n]
    pad = st.sampled_from(["", " ", "  "])
    blank = st.lists(st.sampled_from(["", " ", ","]), max_size=1)
    lines = draw(blank)
    if header:
        lines.append(",".join(([""] if label_column else []) + labels))
    cells_at, grid = {}, []
    for i in range(n):
        lines += draw(blank)
        row = draw(st.lists(NUMBER_TEXTS if i == 0 and not header else CELL_TEXTS,
                            min_size=n, max_size=n))
        grid.append(row)
        cells_at.update({(len(lines) + 1, j): cell for j, cell in enumerate(row, start=1)})
        padded = [draw(pad) + cell + draw(pad) for cell in row]
        lines.append(",".join(([labels[i]] if label_column else []) + padded))
    lines += draw(blank)
    return "\n".join(lines) + "\n", grid, labels if header else None, cells_at


@given(matrix_csv_texts())
@example((",a,b\n\na,1,-2\nb,3,4\n", [["1", "-2"], ["3", "4"]], ["a", "b"],
          {(3, 1): "1", (3, 2): "-2", (4, 1): "3", (4, 2): "4"}))
@settings(max_examples=100, deadline=None)
def test_matrix_csv_is_its_numbers_or_refused_by_line(tmp_path_factory, drawn):
    text, grid, labels, cells_at = drawn
    path = str(tmp_path_factory.mktemp("csv") / "m.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    # the table of the drawn numbers, or None where from_counts refuses them
    expected = None
    if all(is_number(cell) for row in grid for cell in row):
        with contextlib.suppress(ValueError):
            expected = ConfusionMatrix.from_counts([list(map(float, row)) for row in grid], labels)
    try:
        cm = parse_matrix_csv(path)
    except InputError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: "), message
        reason = message[len(path) + 2:]
        match = next(filter(None, (re.fullmatch(f, reason) for f in MATRIX_CSV_REFUSALS)), None)
        assert match, message
        assert expected is None, message
        place = match.groupdict()
        if place.get("line"):  # the named line and column hold the named cell
            cell = cells_at[int(place["line"]), int(place["column"])]
            if reason.startswith("non-numeric"):
                assert not is_number(cell), message
            elif reason.startswith("non-finite"):
                assert not math.isfinite(float(cell)), message
            else:
                assert float(cell) == float(place["value"]) < 0, message
        return
    assert expected is not None, text
    assert cm.labels == expected.labels
    assert hexes(cm.counts.tolist()) == hexes(expected.counts.tolist())
