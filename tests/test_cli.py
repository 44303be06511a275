"""Unit tests for the command-line layer: parsers, dispatch, exit codes."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gofmetrics import confusion
from gofmetrics.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PARAMS,
    InputError,
    MetricRequest,
    ParameterError,
    RunConfig,
    main,
    matrix_to_csv,
    parse_json_input,
    parse_matrix_csv,
    parse_metric_request,
    parse_pairs_csv,
    run,
)
from gofmetrics.confusion import ConfusionMatrix
from gofmetrics.means import GEOMETRIC, HARMONIC, AveragingSpec
from gofmetrics.multiclass import METRICS, evaluate_metric


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseMatrixCsv:
    def test_plain_grid(self, tmp_path):
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        cm = parse_matrix_csv(path)
        assert cm.labels == ("class_0", "class_1", "class_2")
        assert cm.counts.tolist() == [[20, 6, 0], [2, 20, 0], [12, 12, 8]]

    def test_header_row(self, tmp_path):
        path = write(tmp_path, "m.csv", "a,b\n1,0\n0,1\n")
        cm = parse_matrix_csv(path)
        assert cm.labels == ("a", "b")
        assert cm.counts.tolist() == [[1, 0], [0, 1]]

    def test_header_row_and_label_column(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\na,3,1\nb,0,2\n")
        cm = parse_matrix_csv(path)
        assert cm.labels == ("a", "b")
        assert cm.counts.tolist() == [[3, 1], [0, 2]]

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n\n0,1\n\n")
        assert parse_matrix_csv(path).counts.tolist() == [[1, 0], [0, 1]]

    def test_spaces_tolerated(self, tmp_path):
        path = write(tmp_path, "m.csv", " 1 , 0 \n 0 , 1 \n")
        assert parse_matrix_csv(path).counts.tolist() == [[1, 0], [0, 1]]

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,4\n5\n")
        with pytest.raises(InputError, match="ragged row at line 3"):
            parse_matrix_csv(path)

    def test_ragged_second_line(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        with pytest.raises(InputError, match="ragged row at line 2"):
            parse_matrix_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,x\n")
        with pytest.raises(InputError, match="non-numeric cell at line 2, column 2"):
            parse_matrix_csv(path)

    def test_error_after_spanning_label_names_its_line(self, tmp_path):
        # the quoted labels "a\nb" take two lines each, so the bad cell is on line 5
        path = write(tmp_path, "m.csv", ',"a\nb",c\n"a\nb",1,0\nc,0,1x\n')
        with pytest.raises(InputError, match="non-numeric cell at line 5, column 2"):
            parse_matrix_csv(path)

    def test_header_without_data_rows(self, tmp_path):
        path = write(tmp_path, "m.csv", "a,b\n\n")
        with pytest.raises(InputError, match="header but no data rows"):
            parse_matrix_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "5\n")
        with pytest.raises(InputError, match="n < 2"):
            parse_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "m.csv", "")
        with pytest.raises(InputError, match="empty file"):
            parse_matrix_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            parse_matrix_csv(str(tmp_path / "nope.csv"))

    def test_negative_cell_surfaces_as_input_error(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,2\n3,-1\n")
        with pytest.raises(InputError, match="negative cell"):
            parse_matrix_csv(path)

    def test_row_labels_must_match_header(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\nb,3,1\na,0,2\n")
        with pytest.raises(InputError, match="do not match header"):
            parse_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, counts",
        [("20,6\n2,20\n", [[20, 6], [2, 20]]), (",a,b\na,3,1.5\nb,0,2\n", [[3, 1.5], [0, 2]])],
    )
    def test_grid_is_not_scanned_cell_by_cell(self, tmp_path, monkeypatch, text, counts):
        # the reader hands from_counts a float array, whose dtype alone makes it numbers
        def scan(grid):
            raise AssertionError("scanned cell by cell")

        monkeypatch.setattr(confusion, "_check_cells", scan)
        assert parse_matrix_csv(write(tmp_path, "m.csv", text)).counts.tolist() == counts


class TestMatrixRoundTrip:
    def test_integer_counts(self, tmp_path):
        cm = ConfusionMatrix.from_counts(
            [[20, 6, 0], [2, 20, 0], [12, 12, 8]], ["a", "b", "c"]
        )
        path = write(tmp_path, "rt.csv", matrix_to_csv(cm))
        back = parse_matrix_csv(path)
        assert back.labels == cm.labels
        assert np.array_equal(back.counts, cm.counts)

    def test_fractional_counts(self, tmp_path):
        cm = ConfusionMatrix.from_counts([[1.5, 0.25], [0.1, 2.0]])
        path = write(tmp_path, "rt.csv", matrix_to_csv(cm))
        back = parse_matrix_csv(path)
        assert np.array_equal(back.counts, cm.counts)

    def test_quoted_labels(self, tmp_path):
        cm = ConfusionMatrix.from_counts([[1, 0], [0, 1]], ["x,y", "z"])
        path = write(tmp_path, "rt.csv", matrix_to_csv(cm))
        assert parse_matrix_csv(path).labels == ("x,y", "z")

    @pytest.mark.parametrize("labels", [("1", "2"), ("nan", "inf"), ("2", "b")])
    def test_numeric_looking_labels(self, tmp_path, labels):
        cm = ConfusionMatrix.from_counts([[3, 1], [0, 2]], labels)
        path = write(tmp_path, "rt.csv", matrix_to_csv(cm))
        back = parse_matrix_csv(path)
        assert back.labels == labels
        assert np.array_equal(back.counts, cm.counts)

    def test_blank_corner_marks_label_column(self, tmp_path):
        path = write(tmp_path, "m.csv", ",1,2\n1,3,0\n2,0,4\n")
        cm = parse_matrix_csv(path)
        assert cm.labels == ("1", "2")
        assert cm.counts.tolist() == [[3, 0], [0, 4]]

    def test_blank_corner_without_label_column(self, tmp_path):
        path = write(tmp_path, "m.csv", ",a,b\n1,0\n0,1\n")
        cm = parse_matrix_csv(path)
        assert cm.labels == ("a", "b")
        assert cm.counts.tolist() == [[1, 0], [0, 1]]

    @given(
        st.lists(st.text().filter(lambda s: s == s.strip()), min_size=2, max_size=5, unique=True),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_labels_round_trip(self, tmp_path_factory, labels, data):
        n = len(labels)
        cells = st.floats(min_value=0, max_value=1e12, allow_nan=False, allow_infinity=False)
        grid = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
        grid[0][0] += 1.0  # never all zero
        cm = ConfusionMatrix.from_counts(grid, labels)
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(matrix_to_csv(cm))
        back = parse_matrix_csv(str(path))
        assert back.labels == cm.labels
        assert np.array_equal(back.counts, cm.counts)


class TestParsePairsCsv:
    def test_hand_tally(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,a\na,b\nb,b\n")
        cm = parse_pairs_csv(path)
        assert cm.labels == ("a", "b")
        assert cm.counts.tolist() == [[1, 1], [0, 1]]

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "p.csv", "true,predicted\na,a\nb,b\n")
        cm = parse_pairs_csv(path)
        assert cm.total == 2.0

    def test_large_perfect_file_is_diagonal(self, tmp_path):
        rows = []
        for k in range(1000):
            label = ("x", "y", "z")[k % 3]
            rows.append(f"{label},{label}")
        path = write(tmp_path, "p.csv", "\n".join(rows) + "\n")
        cm = parse_pairs_csv(path)
        assert cm.labels == ("x", "y", "z")
        assert np.count_nonzero(cm.counts - np.diag(cm.counts.diagonal())) == 0
        assert cm.total == 1000.0
        assert cm.counts[0, 0] == 334  # "x" rows: k = 0, 3, ..., 999

    def test_column_count_error_names_line(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,a\na,b,c\n")
        with pytest.raises(InputError, match="expected 2 columns at line 2, got 3"):
            parse_pairs_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(InputError, match="empty file"):
            parse_pairs_csv(path)

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path, "p.csv", "true,predicted\n")
        with pytest.raises(InputError, match="empty file"):
            parse_pairs_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,a\n")
        with pytest.raises(InputError, match="n < 2"):
            parse_pairs_csv(path)

    def test_quoted_label_spanning_lines_rejected(self, tmp_path):
        # csv would read the first two lines as one row with the label "a\nb"
        path = write(tmp_path, "p.csv", 'c,c\n"a\nb",a\nb,b\n')
        with pytest.raises(InputError, match="quoted label spans lines at line 2"):
            parse_pairs_csv(path)

    def test_quote_open_at_end_of_last_distinct_line_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", 'a,a\nb,"b\na,a\n')
        with pytest.raises(InputError, match="quoted label spans lines at line 2"):
            parse_pairs_csv(path)

    def test_quote_open_at_end_of_file_without_newline(self, tmp_path):
        # no line follows, so the quote spans nothing; csv closes it
        path = write(tmp_path, "p.csv", 'a,a\nb,"b')
        assert parse_pairs_csv(path).counts.tolist() == [[1, 0], [0, 1]]

    def test_error_names_first_bad_line_in_file_order(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,a\nx,y,z\nb,b\nb,b,b\nx,y,z\n")
        with pytest.raises(InputError, match="expected 2 columns at line 2, got 3"):
            parse_pairs_csv(path)


# Hand-written edge files for the streaming reader against the row-at-a-time
# oracle: equal labels and counts, or the same error message.
PAIRS_EDGE_FILES = {
    "mixed_case_header": "True,PREDICTED\na,b\nb,a\nb,b\n",
    "header_repeated_as_data": "true,predicted\na,a\ntrue,predicted\nb,b\ntrue,predicted\n",
    "header_after_blank_lines": "\n,\n true , predicted \na,b\nb,b\n",
    "header_not_first_is_data": "a,b\ntrue,predicted\n",
    "blank_and_comma_only_lines": "\n,\na,b\n , \n\nb,a\n,,\n\n",
    "padded_cells": " a , b \na,b\n\tb\t,a\nb ,b\n",
    "quoted_labels_with_commas": '"x,y",z\nz,"x,y"\n"x,y","x,y"\nz,z\n',
    "crlf_line_ends": "true,predicted\r\na,b\r\nb,a\r\na,b\nb,b\r\n",
    "three_columns_after_duplicates": "a,a\n" * 500 + "a,b\n" * 500 + "b,b,b\na,a\n",
    "one_column_first": "a\na,b\n",
    "empty_label": "a,\n,b\nb,a\n",
    "header_only": "true,predicted\n\n",
    "blank_only": "\n , \n,,,\n",
    "single_class": "a,a\na,a\n",
    "no_final_newline": "a,b\nb,a\nb,b",
}


def pairs_outcome(parse, path):
    try:
        cm = parse(path)
    except InputError as exc:
        return ("error", str(exc))
    return ("ok", cm.labels, cm.counts.tolist())


class TestPairsCsvAgainstOracle:
    @pytest.mark.parametrize("name", sorted(PAIRS_EDGE_FILES))
    def test_edge_file(self, tmp_path, name):
        path = tmp_path / "p.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(PAIRS_EDGE_FILES[name])
        assert pairs_outcome(parse_pairs_csv, str(path)) == pairs_outcome(
            oracles.pairs_csv_loop, str(path)
        )

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet='ab,"  \r\n\ufeff', max_size=12),
                st.sampled_from(["true,predicted", "TRUE, Predicted", "a,b", '"a,b",a', "b,a"]),
            ),
            max_size=12,
        ).map("\n".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_fuzz(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "p.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = pairs_outcome(parse_pairs_csv, str(path))
        old = pairs_outcome(oracles.pairs_csv_loop, str(path))
        if new[0] == "error" and new != old:
            assert re.search(r"at line \d+", new[1]), new
        else:
            assert new == old


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_pairs_csv, "true,predicted\na,a\na,b\nb,b\n"),
            (parse_pairs_csv, "a,b,c\na,a\n"),
            (parse_matrix_csv, ",a,b\na,3,1\nb,0,2\n"),
            (parse_matrix_csv, "a,b\n3,1\n0,2\n"),
            (parse_matrix_csv, "3,1\n0,2\n"),
            (parse_matrix_csv, "3,1\n0,x\n"),
            (parse_json_input, '{"labels": ["a", "b"], "counts": [[3, 1], [0, 2]]}'),
        ],
        ids=[
            "pairs with header", "pairs refused", "matrix with label column",
            "matrix with header", "plain matrix", "matrix refused", "json",
        ],
    )
    def test_a_leading_bom_reads_as_without_it(self, tmp_path, parse, text):
        # a file saved with a UTF-8 byte-order mark gives the same table, or the same
        # message, as the file without it
        path = tmp_path / "input"
        outcomes = []
        for encoding in ("utf-8", "utf-8-sig"):
            path.write_text(text, encoding=encoding)
            outcomes.append(pairs_outcome(parse, str(path)))
        assert path.read_bytes().startswith("\ufeff".encode())
        assert outcomes[1] == outcomes[0]
        assert "\ufeff" not in str(outcomes[1])


class TestParseJsonInput:
    def test_labels_and_counts(self, tmp_path):
        payload = {"labels": ["a", "b"], "counts": [[1, 0], [0, 1]]}
        path = write(tmp_path, "m.json", json.dumps(payload))
        cm = parse_json_input(path)
        assert cm.labels == ("a", "b")

    def test_counts_only(self, tmp_path):
        path = write(tmp_path, "m.json", '{"counts": [[1, 0], [0, 1]]}')
        assert parse_json_input(path).labels == ("class_0", "class_1")

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "m.json", "{nope")
        with pytest.raises(InputError, match="invalid JSON"):
            parse_json_input(path)

    def test_missing_counts_field(self, tmp_path):
        path = write(tmp_path, "m.json", '{"labels": ["a", "b"]}')
        with pytest.raises(InputError, match="counts"):
            parse_json_input(path)

    def test_non_square_counts(self, tmp_path):
        path = write(tmp_path, "m.json", '{"counts": [[1, 0, 2], [0, 1, 3]]}')
        with pytest.raises(InputError, match="non-square"):
            parse_json_input(path)

    def exits_2(self, tmp_path, capsys, text):
        path = write(tmp_path, "m.json", text)
        code = main(["--input", path, "--format", "json", "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        return capsys.readouterr().err

    def test_string_labels_exit_2(self, tmp_path, capsys):
        err = self.exits_2(tmp_path, capsys, '{"labels": "ab", "counts": [[1, 0], [0, 1]]}')
        assert "labels must be a list of names" in err

    def test_non_list_labels_exit_2(self, tmp_path, capsys):
        err = self.exits_2(tmp_path, capsys, '{"labels": 5, "counts": [[1, 0], [0, 1]]}')
        assert "labels must be a list of names, got 5" in err

    @pytest.mark.parametrize(
        "labels, message",
        [
            ('[[1], {"x": 2}]', "labels[0] is [1], not a string"),
            ('["a", 2]', "labels[1] is 2, not a string"),
            ('["a", null]', "labels[1] is null, not a string"),
        ],
    )
    def test_non_string_labels_exit_2(self, tmp_path, capsys, labels, message):
        text = f'{{"labels": {labels}, "counts": [[1, 0], [0, 1]]}}'
        assert message in self.exits_2(tmp_path, capsys, text)

    def test_non_list_counts_exit_2(self, tmp_path, capsys):
        err = self.exits_2(tmp_path, capsys, '{"counts": {"a": 1}}')
        assert 'counts must be a list of rows, got {"a": 1}' in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"a": 1}', 'counts[1] is {"a": 1}, not a list of numbers'),
            ('"ab"', 'counts[1] is "ab", not a list of numbers'),
            ("3", "counts[1] is 3, not a list of numbers"),
            ("null", "counts[1] is null, not a list of numbers"),
        ],
    )
    def test_non_list_row_exit_2(self, tmp_path, capsys, row, message):
        # numpy would read the keys or characters as cells, and a number or null
        # as a cell of a 1-d grid
        err = self.exits_2(tmp_path, capsys, f'{{"counts": [[1, 0], {row}]}}')
        assert message in err

    def test_boolean_counts_exit_2(self, tmp_path, capsys):
        err = self.exits_2(tmp_path, capsys, '{"counts": [[true, false], [false, true]]}')
        assert "counts[0][0] is true, not a number" in err

    @pytest.mark.parametrize(
        "counts, message",
        [
            ("[[1, 0], [2, [3]]]", "counts[1][1] is [3], not a number"),
            ('[[1, "x", true], [0, 1, 2], [1, 1, 1]]', 'counts[0][1] is "x", not a number'),
            ("[[1, 2.5, 0], [0, 1, null], [1, 1, 1]]", "counts[1][2] is null, not a number"),
        ],
    )
    def test_first_refused_cell_named(self, tmp_path, capsys, counts, message):
        err = self.exits_2(tmp_path, capsys, f'{{"counts": {counts}}}')
        assert message in err

    def test_string_counts_exit_2(self, tmp_path, capsys):
        err = self.exits_2(tmp_path, capsys, '{"counts": [[3, "1"], ["1", "3"]]}')
        assert 'counts[0][1] is "1", not a number' in err

    def test_count_past_the_double_range_exits_2(self, tmp_path, capsys):
        # json reads 10^400 as an int that float() cannot
        err = self.exits_2(tmp_path, capsys, f'{{"counts": [[1, 0], [0, {10**400}]]}}')
        assert "cell at row 1, column 1 is past the double range" in err



# JSON documents built from text, so that the number rule's non-numbers and the
# double range's edges appear in the forms a JSON file holds them
_JSON_NUMBERS = st.one_of(
    st.integers(0, 40).map(str),
    st.floats(0, 1e6).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e300"]),
)
# the double range's edges past the finite non-negative doubles, and the JSON forms
# of the number rule's non-numbers
_JSON_EDGES = st.sampled_from(["1e400", "NaN", "Infinity", "-Infinity", "-1", "1" + "0" * 399])
_JSON_NON_NUMBERS = st.sampled_from(
    ['"3"', '"x"', "true", "false", "null", "[1]", "[]", "{}", '{"a": 1}']
)
_NO_ROWS = st.sampled_from(['"ab"', '{"a": 1}', "3", "null", "true"])


def _json_list(items):
    return "[" + ", ".join(items) + "]"


@st.composite
def json_documents(draw):
    # a labelled grid of numbers, then none, one or two of these faults
    kinds = ["edges", "non-numbers", "rows", "counts", "labels", "document"]
    faults = draw(st.sets(st.sampled_from(kinds), max_size=2))
    n = draw(st.sampled_from([2, 3, 4, 1]))
    cells = _JSON_NUMBERS
    for fault, odd in (("edges", _JSON_EDGES), ("non-numbers", _JSON_NON_NUMBERS)):
        if fault in faults:  # now and then among the numbers
            cells = st.one_of(cells, cells, odd)
    rows = st.lists(cells, min_size=n, max_size=n).map(_json_list)
    if "rows" in faults:  # ragged, no lists, or too few or many
        rows = st.one_of(rows, st.lists(cells, max_size=n + 1).map(_json_list), _NO_ROWS)
    counts = draw(st.lists(rows, min_size=n, max_size=n + ("rows" in faults)).map(_json_list))
    if "counts" in faults:
        counts = draw(st.sampled_from(['{"a": 1}', '"x"', "5", "null", "[]"]))
    names = st.text(max_size=3).map(json.dumps)
    labels = st.lists(names, min_size=n, max_size=n, unique=True).map(_json_list)
    labels = st.one_of(st.none(), labels)  # no "labels" field, or n names
    if "labels" in faults:  # a wrong count or duplicated, n that are not all strings, or no list
        labels = st.one_of(
            st.lists(names, max_size=n + 1).map(_json_list),
            st.lists(st.sampled_from(['"a"', "1", "null", "true", "[1]", '{"b": 2}']),
                     min_size=n, max_size=n, unique=True).map(_json_list),
            st.sampled_from(['"ab"', "5", "null", '{"a": "b"}']),
        )
    labels = draw(labels)
    field = "" if labels is None else f'"labels": {labels}, '
    document = "{" + field + f'"counts": {counts}' + "}"
    if "document" in faults:  # cut short, no object, or no "counts" field
        document = draw(st.one_of(
            st.integers(0, len(document) - 1).map(lambda cut: document[:cut]),
            st.sampled_from(["[]", "[[1, 0], [0, 1]]", "3", '"counts"', "null", "true", "{}",
                             '{"labels": ["a", "b"]}']),
        ))
    return document


# what a refusal says after "<path>: ": a cell, row or label by its place, or a
# condition of the whole document
JSON_REFUSALS = [
    r"invalid JSON: .+",
    r'expected an object with a "counts" field',
    r"labels must be a list of names, got .+",
    r"labels\[(?P<label>\d+)\] is (?P<value>.+), not a string",
    r"label count \d+ does not match grid side \d+",
    r"duplicate labels",
    r"counts must be a list of rows, got .+",
    r"counts\[(?P<row>\d+)\] is (?P<value>.+), not a list of numbers",
    r"counts\[(?P<row>\d+)\]\[(?P<column>\d+)\] is (?P<value>.+), not a number",
    r"cell at row (?P<row>\d+), column (?P<column>\d+) is past the double range",
    r"non-finite cell at row (?P<row>\d+), column (?P<column>\d+)",
    r"negative cell at row (?P<row>\d+), column (?P<column>\d+): -\S+",
    r"non-square grid: rows have unequal lengths",
    r"non-square grid: shape \([\d, ]*\)",
    r"n < 2: need at least two classes, got [01]",
    r"sum of (row|column) \d+ overflows",
    r"all cells are zero",
]


class TestJsonInputProperty:
    @given(json_documents())
    @settings(max_examples=200, deadline=None)
    def test_document_is_from_counts_or_refused_by_name(self, tmp_path_factory, text):
        path = str(tmp_path_factory.mktemp("json") / "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            cm = parse_json_input(path)
        except InputError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: "), message
            reason = message[len(path) + 2:]
            match = next(filter(None, (re.fullmatch(form, reason) for form in JSON_REFUSALS)), None)
            assert match, message
            place = match.groupdict()
            if place:  # the named label, row or cell is there, and reads as named
                payload = json.loads(text)
                if place.get("label"):
                    item = payload["labels"][int(place["label"])]
                else:
                    item = payload["counts"][int(place["row"])]
                    if place.get("column"):
                        item = item[int(place["column"])]
                if place.get("value"):
                    assert json.dumps(item) == place["value"], message
            return
        payload = json.loads(text)
        # only JSON numbers and strings get through, which from_counts reads as they are
        assert all(type(cell) in (int, float) for row in payload["counts"] for cell in row)
        assert all(type(label) is str for label in payload.get("labels") or ())
        expected = ConfusionMatrix.from_counts(payload["counts"], payload.get("labels"))
        assert cm.labels == expected.labels
        hexes = [[cell.hex() for cell in row] for row in cm.counts.tolist()]
        assert hexes == [[cell.hex() for cell in row] for row in expected.counts.tolist()]

class TestParseMetricRequest:
    def test_bare_name(self):
        req = parse_metric_request("generalized_mcc")
        assert req == MetricRequest("generalized_mcc", None, None)

    def test_outer_option(self):
        req = parse_metric_request("generalized_f1:outer=harmonic")
        assert req.outer == HARMONIC

    def test_power_outer_keeps_its_colon(self):
        req = parse_metric_request("generalized_f1:outer=power:0.5")
        assert req.outer == AveragingSpec.power(0.5)

    def test_p_option(self):
        req = parse_metric_request("lp_multiclass:p=-1")
        assert req.p == -1.0

    def test_both_options_any_order(self):
        req = parse_metric_request("one_vs_one_lp_four_rate:p=-1:outer=geometric")
        assert req.p == -1.0
        assert req.outer == GEOMETRIC
        req2 = parse_metric_request("one_vs_one_lp_four_rate:outer=geometric:p=-1")
        assert req2.p == -1.0
        assert req2.outer == GEOMETRIC

    def test_unknown_option(self):
        with pytest.raises(ParameterError, match="unknown metric option"):
            parse_metric_request("generalized_f1:inner=harmonic")

    def test_bad_exponent(self):
        with pytest.raises(ParameterError, match="bad exponent"):
            parse_metric_request("lp_multiclass:p=abc")

    def test_bad_outer(self):
        with pytest.raises(ParameterError, match="unknown averaging spec"):
            parse_metric_request("generalized_f1:outer=median")

    def test_dangling_option(self):
        with pytest.raises(ParameterError, match="bad metric option"):
            parse_metric_request("generalized_f1:harmonic")

    def test_empty_name(self):
        with pytest.raises(ParameterError, match="empty metric name"):
            parse_metric_request(":outer=harmonic")

    @pytest.mark.parametrize(
        "text, key",
        [("generalized_f1:outer=min:outer=harmonic", "outer"), ("lp_multiclass:p=-1:p=0.5", "p")],
    )
    def test_repeated_option_rejected(self, tmp_path, capsys, text, key):
        # neither value may silently win, so the invalid outer=min is never skipped
        with pytest.raises(ParameterError) as info:
            parse_metric_request(text)
        assert str(info.value) == f"repeated metric option {key!r} in {text!r}"
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        assert main(["--input", path, "--metric", text]) == EXIT_PARAMS
        assert f"repeated metric option {key!r}" in capsys.readouterr().err


# a metric request's pieces: names from METRICS and unknown ones, known,
# unknown and repeated option keys, and values that are spec names, power
# specs, floats, their non-finite spellings and junk
REQUEST_NAMES = st.sampled_from([*METRICS, "mcc", "one_vs_one_", "generalized_MCC"])
REQUEST_KEYS = st.sampled_from(["outer", "p", "inner", "P", ""])
REQUEST_VALUES = st.one_of(
    st.sampled_from(
        ["harmonic", "geometric", "arithmetic", "min", "max", "median", "power", "power:",
         "power:x", "nan", "inf", "-inf", "junk", ""]
    ),
    st.floats().map(repr),
    st.floats().map(lambda x: f"power:{x!r}"),
)
# a key of None is a token with no "=", which glues onto the option before it
REQUEST_OPTIONS = st.lists(st.tuples(st.none() | REQUEST_KEYS, REQUEST_VALUES), max_size=3)
REQUEST_TABLES = [[[20, 6, 0], [2, 20, 0], [12, 12, 8]], [[7, 2], [3, 5]], [[3, 0], [2, 0]]]


class TestMetricRequestProperty:
    @given(REQUEST_NAMES, REQUEST_OPTIONS, st.sampled_from(REQUEST_TABLES))
    @settings(max_examples=200, deadline=None)
    def test_scored_in_range_or_refused_by_name(self, name, options, grid):
        # the CLI's path for a --metric: each request scores within its row's
        # range, or is refused with a message that names its metric, an option
        # key, an option value, or quotes a piece of the request
        text = name + "".join(f":{v}" if k is None else f":{k}={v}" for k, v in options)
        cm = ConfusionMatrix.from_counts(grid)
        try:
            req = parse_metric_request(text)
            score = evaluate_metric(cm, req.name, req.outer, req.p)
        except (ParameterError, ValueError) as exc:
            message = str(exc)
            assert (
                name in message
                or any(re.search(rf"(?<!\w){re.escape(k)}(?!\w)", message) for k, _ in options if k)
                or any(v and v.lower() in message.lower() for _, v in options)
                or any(quoted in text for quoted in re.findall(r"'([^']*)'", message))
            ), (text, message)
        else:
            low = -1.0 if METRICS[name].signed else 0.0
            assert low <= score.value <= 1.0, (text, score.value)


class TestRun:
    def config(self, path, *metric_texts, fmt="matrix_csv", smoothing=None):
        return RunConfig(
            input_path=path,
            input_format=fmt,
            metrics=tuple(parse_metric_request(t) for t in metric_texts),
            smoothing=smoothing,
        )

    def test_evaluates_all_requests(self, tmp_path):
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        cm, scores = run(
            self.config(path, "generalized_mcc", "generalized_f1", "cramers_phi")
        )
        assert cm.n == 3
        assert [s.metric_id for s in scores] == [
            "generalized_mcc",
            "generalized_f1",
            "cramers_phi",
        ]
        assert scores[0].value == pytest.approx(0.22566928801238004, abs=1e-12)
        assert scores[1].parameters == {"outer": "arithmetic"}

    def test_no_metrics_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="no metrics"):
            run(RunConfig(input_path=path))

    def test_outer_rejected_on_parameterless_metrics(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        for metric in ("generalized_mcc:outer=harmonic", "cramers_phi:outer=min"):
            with pytest.raises(ParameterError, match="takes no outer"):
                run(self.config(path, metric))

    def test_p_requirements(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="needs p"):
            run(self.config(path, "lp_multiclass"))
        with pytest.raises(ParameterError, match="needs p"):
            run(self.config(path, "one_vs_one_lp_four_rate"))
        with pytest.raises(ParameterError, match="takes no p"):
            run(self.config(path, "generalized_f1:p=0.5"))
        with pytest.raises(ParameterError, match="takes no p"):
            run(self.config(path, "one_vs_one_mcc:p=0.5"))

    def test_p_above_one_becomes_parameter_error(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="p must be <= 1"):
            run(self.config(path, "lp_multiclass:p=2"))

    @pytest.mark.parametrize("metric", ["lp_multiclass", "one_vs_one_lp_four_rate"])
    def test_nan_p_is_parameter_error(self, tmp_path, metric):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="NaN exponent"):
            run(self.config(path, f"{metric}:p=nan"))

    def test_unknown_input_format(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="unknown input format 'xml'"):
            run(self.config(path, "generalized_mcc", fmt="xml"))

    def test_signed_outer_error_is_parameter_error(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="average undefined on negative"):
            run(self.config(path, "one_vs_one_mcc:outer=harmonic"))

    def test_unknown_metric(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="unknown metric"):
            run(self.config(path, "accuracy"))
        with pytest.raises(ParameterError, match="unknown metric"):
            run(self.config(path, "one_vs_one_accuracy"))

    def test_smoothing_applied_and_noted(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        cm, scores = run(
            self.config(path, "generalized_mcc", smoothing=0.5)
        )
        assert cm.counts.tolist() == [[1.5, 0.5], [0.5, 1.5]]
        assert scores[0].parameters["alpha"] == "0.5"
        # smoothed normalized matrix is [[.75,.25],[.25,.75]], det 0.5 by hand
        assert scores[0].value == pytest.approx(0.5, abs=1e-12)

    def test_negative_alpha_is_parameter_error(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        with pytest.raises(ParameterError, match="non-negative"):
            run(self.config(path, "generalized_mcc", smoothing=-0.5))

    def test_pairs_format(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,a\nb,b\n")
        cm, scores = run(self.config(path, "generalized_mcc", fmt="pairs_csv"))
        assert scores[0].value == 1.0

    def test_json_format(self, tmp_path):
        path = write(tmp_path, "m.json", '{"counts": [[2, 0], [0, 2]]}')
        cm, scores = run(self.config(path, "cramers_phi", fmt="json"))
        assert scores[0].value == 1.0


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(["--input", path, "--metric", "generalized_mcc"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "generalized_mcc = 1" in out

    def test_input_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,2\n3\n")
        code = main(["--input", path, "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        assert "ragged row at line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (",a,b\n\na,1,-2\nb,3,4\n", "negative cell at line 3, column 2: -2.0"),
            ("x,y\n1,nan\n2,3\n", "non-finite cell at line 2, column 2"),
        ],
    )
    def test_matrix_csv_value_refusal_names_line_and_column(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "m.csv", text)
        assert main(["--input", path, "--metric", "generalized_mcc"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["--input", str(tmp_path / "nope.csv"), "--metric", "generalized_mcc"]
        )
        assert code == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["matrix_csv", "pairs_csv", "json"])
    def test_invalid_utf8_exits_2(self, tmp_path, capsys, fmt):
        # the bad byte sits past the first chunk a text read decodes
        path = tmp_path / "bad.txt"
        path.write_bytes(b" " * 10000 + b"\na,a\nb,\xff\n")
        code = main(["--input", str(path), "--format", fmt, "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        assert f"{path}: invalid UTF-8 at line 3, byte 10007" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, text, line",
        [
            ("matrix_csv", ",a,b\na,1,0\nb,0,{}\n", 3),
            # reported at the first line that holds the oversized cell
            ("pairs_csv", "true,predicted\na,a\na,a\n{},a\nb,b\n{},a\n", 4),
        ],
    )
    def test_oversized_cell_exits_2(self, tmp_path, capsys, fmt, text, line):
        path = write(tmp_path, "big.csv", text.format("1" * 200_000, "1" * 200_000))
        code = main(["--input", path, "--format", fmt, "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: field larger than field limit (131072) at line {line}" in err

    @pytest.mark.parametrize(
        "fmt, text",
        [("matrix_csv", "1e308,1e308\n0,1\n"), ("json", '{"counts": [[1e308, 1e308], [0, 1]]}')],
    )
    def test_overflowing_sum_exits_2(self, tmp_path, capsys, fmt, text):
        path = write(tmp_path, "m.txt", text)
        code = main(["--input", path, "--format", fmt, "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        assert f"{path}: sum of row 0 overflows" in capsys.readouterr().err

    def test_quoted_label_spanning_lines_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "p.csv", '"a\nb",a\nb,b\n')
        code = main(["--input", path, "--format", "pairs_csv", "--metric", "generalized_mcc"])
        assert code == EXIT_INPUT
        assert "quoted label spans lines at line 1" in capsys.readouterr().err

    def test_single_class_pairs_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "p.csv", "a,a\n")
        code = main(
            ["--input", path, "--format", "pairs_csv", "--metric", "generalized_mcc"]
        )
        assert code == EXIT_INPUT
        assert "n < 2" in capsys.readouterr().err

    def test_parameter_error_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(["--input", path, "--metric", "lp_multiclass:p=2"])
        assert code == EXIT_PARAMS
        assert "p must be <= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["lp_multiclass", "one_vs_one_lp_four_rate"])
    def test_nan_p_exits_3(self, tmp_path, capsys, metric):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(["--input", path, "--metric", f"{metric}:p=nan"])
        assert code == EXIT_PARAMS
        assert "NaN exponent" in capsys.readouterr().err

    def test_unknown_metric_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(["--input", path, "--metric", "bogus"])
        assert code == EXIT_PARAMS
        capsys.readouterr()

    def test_negative_smoothing_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(
            ["--input", path, "--metric", "generalized_mcc", "--smooth", "-1"]
        )
        assert code == EXIT_PARAMS
        capsys.readouterr()

    def test_overflowing_smoothing_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        code = main(
            ["--input", path, "--metric", "generalized_mcc", "--smooth", "1e308"]
        )
        assert code == EXIT_PARAMS
        assert "cannot smooth by 1e+308: sum of row 0 overflows" in capsys.readouterr().err


class TestReports:
    def test_json_shape_and_precision(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        code = main(
            [
                "--input", path,
                "--metric", "generalized_mcc",
                "--metric", "generalized_f1:outer=harmonic",
                "--output", "json",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["input", "n_classes", "total", "scores"]
        assert report["input"] == path
        assert report["n_classes"] == 3
        assert report["total"] == 80
        assert report["scores"][0] == {
            "metric": "generalized_mcc",
            "params": {},
            "value": 0.225669288012,
        }
        assert report["scores"][1]["params"] == {"outer": "harmonic"}

    def test_json_power_outer_in_its_one_spelling(self, tmp_path, capsys):
        # an outer exponent must be <= 1, so power:2 itself is refused
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        code = main(
            [
                "--input", path,
                "--metric", "generalized_f1:outer=power:-2",
                "--metric", "generalized_f1:outer=power:1",
                "--output", "json",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        params = [score["params"] for score in report["scores"]]
        assert params == [{"outer": "power:-2.0"}, {"outer": "power:1.0"}]

    def test_json_smoothing_noted(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0\n0,1\n")
        main(
            [
                "--input", path,
                "--metric", "generalized_mcc",
                "--smooth", "0.5",
                "--output", "json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 4
        assert report["scores"][0]["params"] == {"alpha": "0.5"}

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_negative_zero_options_read_as_zero(self, tmp_path, capsys, output):
        # p=-0 and --smooth -0.0 are the options p=0 and --smooth 0, and the
        # report spells them so
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        reports = []
        for p, alpha in (("-0", "-0.0"), ("0", "0")):
            argv = [
                "--input", path,
                "--metric", f"lp_multiclass:p={p}",
                "--metric", f"one_vs_one_lp_four_rate:p={p}",
                "--smooth", alpha,
                "--output", output,
            ]
            assert main(argv) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "-0.0" not in reports[0]

    @pytest.mark.parametrize(
        "csv, text_total, json_total",
        [
            ("1e300,1e300\n1e300,1e300\n", "4e+300", "4e+300"),
            ("4503599627370496,0\n0,4503599627370495\n", "9007199254740991", "9007199254740991"),
            ("4503599627370496,0\n0,4503599627370496\n", "9.00719925474e+15", "9007199254740000.0"),
        ],
    )
    def test_total_is_an_int_only_below_two_to_the_53(
        self, tmp_path, capsys, csv, text_total, json_total
    ):
        # past 2^53 every double is an integer, and its every digit is no count
        path = write(tmp_path, "m.csv", csv)
        argv = ["--input", path, "--metric", "generalized_mcc"]
        assert main(argv) == EXIT_OK
        assert f"  total: {text_total}\n" in capsys.readouterr().out
        assert main(argv + ["--output", "json"]) == EXIT_OK
        assert f'"total": {json_total},' in capsys.readouterr().out

    def test_text_report_lists_all_metrics(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        main(
            [
                "--input", path,
                "--metric", "generalized_fm",
                "--metric", "one_vs_one_mcc:outer=min",
            ]
        )
        out = capsys.readouterr().out
        assert "classes: 3" in out
        assert "generalized_fm[outer=arithmetic] = 0.621462419287" in out
        assert "one_vs_one_mcc[outer=min] = 0.5" in out

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "20,6,0\n2,20,0\n12,12,8\n")
        argv = ["--input", path, "--metric", "generalized_mcc", "--output", "json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
