"""Command-line front end.

Reads one confusion matrix (matrix CSV, label-pairs CSV, or JSON), then
evaluates any number of requested metrics on it and prints a report.

Metric request syntax: "name[:outer=<avg>][:p=<float>]" where <avg> is
harmonic | geometric | arithmetic | min | max | power:<float>.  The names,
and which of the two options each one takes, are the rows of
`gofmetrics.multiclass.METRICS`; README.md has examples.

Exit codes: 0 success, 2 unreadable/invalid input, 3 bad metric parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .confusion import ConfusionMatrix, _CellError, _CellValueError, smooth
from .means import AveragingSpec
from .multiclass import MetricScore, evaluate_metric

__all__ = [
    "RunConfig",
    "MetricRequest",
    "InputError",
    "ParameterError",
    "parse_matrix_csv",
    "parse_pairs_csv",
    "parse_json_input",
    "matrix_to_csv",
    "parse_metric_request",
    "run",
    "render_text",
    "render_json",
    "main",
]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3


class InputError(Exception):
    """Unreadable or invalid input data (exit 2)."""


class ParameterError(Exception):
    """Invalid metric request or parameter (exit 3)."""


@dataclass(frozen=True)
class MetricRequest:
    """One requested metric with its optional outer average and exponent."""

    name: str
    outer: AveragingSpec | None = None
    p: float | None = None


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    input_format: str = "matrix_csv"  # matrix_csv | pairs_csv | json
    metrics: tuple[MetricRequest, ...] = ()
    output_format: str = "text"  # text | json
    smoothing: float | None = None  # alpha, when requested


# ---------------------------------------------------------------- ingestion

def _read(path: str, consume, newline: str | None = None):
    """Return consume(file) for path opened as UTF-8 text, less a leading BOM.

    Read and decode errors become InputError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            return consume(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, exc) from None


def _utf8_error(path: str, exc: UnicodeDecodeError) -> InputError:
    # a text file decodes in chunks, so exc.start counts from a chunk's
    # start; a binary rescan gives the offset in the file
    offset = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as err:
                return InputError(
                    f"{path}: invalid UTF-8 at line {lineno}, "
                    f"byte {offset + err.start}: {err.reason}"
                )
            offset += len(line)
    return InputError(f"{path}: invalid UTF-8: {exc.reason}")


def _csv_rows(path: str, reader, lineno=lambda n: n):
    """The rows of a csv.reader.

    A csv.Error, such as a cell past csv.field_size_limit(), becomes an
    InputError naming line lineno(n), n being the reader's line_num.
    """
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{path}: {exc} at line {lineno(reader.line_num)}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def parse_matrix_csv(path: str) -> ConfusionMatrix:
    """Read a square numeric grid, optionally headed by label row/column.

    Layouts accepted (blank lines are skipped, cells may carry spaces):
        plain grid            header row            header row + label column
        1,0                   a,b                   ,a,b
        0,1                   1,0                   a,1,0
                              0,1                   b,0,1

    Rows one cell wider than the header's labels lead with their own
    labels, even labels that read as numbers; a refused cell is named by
    its line and its column in the grid, the label column not counted.
    """
    def numbered(fh) -> list[tuple[int, list[str]]]:
        # the reader's line_num, the line a row ends on, counts the lines of
        # a quoted label that spans them
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in _csv_rows(path, reader)]

    rows: list[tuple[int, list[str]]] = []  # (1-based line number, cells)
    # newline="": the csv module sees line ends as written, so a quoted
    # "\r" in a label survives
    for lineno, row in _read(path, numbered, newline=""):
        cells = [c.strip() for c in row]
        if not cells or all(c == "" for c in cells):
            continue
        rows.append((lineno, cells))
    if not rows:
        raise InputError(f"{path}: empty file")

    first = rows[0][1]
    has_header = not all(_is_number(c) for c in first)
    labels: list[str] | None = None
    data_rows = rows
    if has_header:
        labels = first[1:] if first[0] == "" else list(first)
        data_rows = rows[1:]
        if not data_rows:
            raise InputError(f"{path}: header but no data rows")

    width = len(data_rows[0][1])
    has_label_col = has_header and width == len(labels) + 1
    grid: list[list[float]] = []
    row_labels: list[str] = []
    for lineno, cells in data_rows:
        if len(cells) != width:
            raise InputError(f"{path}: ragged row at line {lineno}")
        if has_label_col:
            row_labels.append(cells[0])
            cells = cells[1:]
        try:
            grid.append(list(map(float, cells)))
        except ValueError:
            colno = next(j for j, cell in enumerate(cells, start=1) if not _is_number(cell))
            raise InputError(
                f"{path}: non-numeric cell at line {lineno}, column {colno}"
            ) from None

    if has_label_col and row_labels != list(labels):
        raise InputError(
            f"{path}: row labels {row_labels} do not match header {labels}"
        )
    try:
        return ConfusionMatrix.from_counts(np.array(grid), labels)  # a float array: no cell scan
    except _CellValueError as exc:  # named by line and column, as a non-numeric cell is
        i, j = exc.place
        where = f"line {data_rows[i][0]}, column {j + 1}"
        raise InputError(f"{path}: {exc.form.format(where)}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _first_line(path: str, line: str) -> int:
    """1-based number of the first line of path that reads `line`."""
    return _read(path, lambda fh: next(n for n, text in enumerate(fh, 1) if text == line))


def parse_pairs_csv(path: str) -> ConfusionMatrix:
    """Read (true, predicted) label pairs, one pair per line.

    A first line reading exactly "true,predicted" is treated as a header.
    Identical lines are counted as the file streams by and each distinct
    line is parsed once, so memory grows with the distinct lines, not the
    rows.  A quoted label may not span lines.
    """
    lines = _read(path, Counter)  # keys in order of first occurrence
    tally: dict[tuple[str, ...], int] = {}
    first_row = True
    # an error in the k-th distinct line is reported at its first occurrence
    rows = _csv_rows(path, csv.reader(lines), lambda k: _first_line(path, list(lines)[k - 1]))
    # zip draws the row first, so each row meets the line it began on
    for row, (line, count) in zip(rows, lines.items()):
        # a line holds "\n" only at its end, so a cell holds one only if its quote ran on
        if "\n" in "".join(row):
            raise InputError(f"{path}: quoted label spans lines at line {_first_line(path, line)}")
        # interned, so the tally holds one string per label, not per line
        cells = tuple(map(sys.intern, map(str.strip, row)))
        if not any(cells):
            continue
        if len(cells) != 2:
            raise InputError(
                f"{path}: expected 2 columns at line {_first_line(path, line)}, "
                f"got {len(cells)}"
            )
        if first_row:
            first_row = False
            if (cells[0].lower(), cells[1].lower()) == ("true", "predicted"):
                count -= 1  # the header; the same line further on is data
        if count:
            tally[cells] = tally.get(cells, 0) + count
    if not tally:
        raise InputError(f"{path}: empty file")
    try:
        return ConfusionMatrix.from_pair_counts(tally)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def parse_json_input(path: str) -> ConfusionMatrix:
    """Read a JSON object {"labels": [...], "counts": [[...]]}; labels optional."""
    try:
        payload = json.loads(_read(path, lambda fh: fh.read()))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "counts" not in payload:
        raise InputError(f'{path}: expected an object with a "counts" field')
    labels = payload.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise InputError(f"{path}: labels must be a list of names, got {json.dumps(labels)}")
    for i, label in enumerate(labels or ()):
        if not isinstance(label, str):  # from_counts would read it through str()
            raise InputError(f"{path}: labels[{i}] is {json.dumps(label)}, not a string")
    counts = payload["counts"]
    if not isinstance(counts, list):
        raise InputError(f"{path}: counts must be a list of rows, got {json.dumps(counts)}")
    try:
        return ConfusionMatrix.from_counts(counts, labels)
    except _CellError as exc:  # a row that is no list of numbers, or a cell that is no number
        item = "a list of numbers" if len(exc.place) == 1 else "a number"
        place = "".join(f"[{k}]" for k in exc.place)
        raise InputError(f"{path}: counts{place} is {json.dumps(exc.value)}, not {item}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def matrix_to_csv(cm: ConfusionMatrix) -> str:
    """Serialize with a blank-corner header row and a label column.

    Labels are quoted and counts written with repr, so parse_matrix_csv
    inverts this exactly for labels without surrounding whitespace,
    numeric-looking labels included.
    """
    out = io.StringIO()
    # QUOTE_NONNUMERIC also quotes a "\r" in a label, which QUOTE_MINIMAL
    # leaves bare under a "\n" line terminator
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(["", *cm.labels])
    for label, row in zip(cm.labels, cm.counts):
        writer.writerow([label, *map(float, row)])
    return out.getvalue()


_PARSERS = {
    "matrix_csv": parse_matrix_csv,
    "pairs_csv": parse_pairs_csv,
    "json": parse_json_input,
}


# ------------------------------------------------------------ metric requests

def parse_metric_request(text: str) -> MetricRequest:
    """Parse "name[:outer=<avg>][:p=<float>]".

    The outer value may itself contain a colon (power:<float>); any
    colon-separated token without "=" is glued back onto the previous
    option's value.
    """
    parts = text.split(":")
    name = parts[0].strip()
    if not name:
        raise ParameterError(f"empty metric name in {text!r}")
    options: list[list[str]] = []
    for token in parts[1:]:
        if "=" in token:
            key, value = token.split("=", 1)
            options.append([key.strip(), value.strip()])
        elif options:
            options[-1][1] += ":" + token.strip()
        else:
            raise ParameterError(f"bad metric option {token!r} in {text!r}")
    outer: AveragingSpec | None = None
    p: float | None = None
    for key, value in options:
        if [k for k, _ in options].count(key) > 1:
            raise ParameterError(f"repeated metric option {key!r} in {text!r}")
        if key == "outer":
            try:
                outer = AveragingSpec(value)
            except ValueError as exc:
                raise ParameterError(str(exc)) from None
        elif key == "p":
            try:
                p = float(value)
            except ValueError:
                raise ParameterError(f"bad exponent {value!r} in {text!r}") from None
        else:
            raise ParameterError(f"unknown metric option {key!r} in {text!r}")
    return MetricRequest(name, outer, p)


def run(config: RunConfig) -> tuple[ConfusionMatrix, list[MetricScore]]:
    """Ingest per config, smooth when requested, evaluate every metric.

    Raises InputError (exit 2) or ParameterError (exit 3); the caller maps
    them to exit codes.
    """
    if not config.metrics:
        raise ParameterError("no metrics requested")
    if config.input_format not in _PARSERS:
        raise ParameterError(f"unknown input format {config.input_format!r}")
    cm = _PARSERS[config.input_format](config.input_path)
    if config.smoothing is not None:
        # a bad alpha, or one that makes the table overflow, is a bad parameter
        try:
            cm = smooth(cm, config.smoothing)
        except ValueError as exc:
            raise ParameterError(f"cannot smooth by {config.smoothing!r}: {exc}") from None
    scores = []
    for req in config.metrics:
        try:
            score = evaluate_metric(cm, req.name, req.outer, req.p)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
        if config.smoothing is not None:
            score = replace(
                score,
                parameters={**score.parameters, "alpha": repr(float(config.smoothing) + 0.0)},
            )
        scores.append(score)
    return cm, scores


# ----------------------------------------------------------------- reporting

def _sig12(value: float) -> float:
    # round to 12 significant digits for stable, diff-friendly reports
    return float(f"{value:.12g}")


def _total(total: float) -> int | float:
    # an int only below 2^53, where every integer is a double; else as a score is
    return int(total) if total < 2**53 and total == int(total) else _sig12(total)


def render_json(config: RunConfig, cm: ConfusionMatrix, scores: list[MetricScore]) -> str:
    report = {
        "input": config.input_path,
        "n_classes": cm.n,
        "total": _total(cm.total),
        "scores": [
            {
                "metric": s.metric_id,
                "params": dict(sorted(s.parameters.items())),
                "value": _sig12(s.value),
            }
            for s in scores
        ],
    }
    return json.dumps(report, indent=2) + "\n"


def render_text(config: RunConfig, cm: ConfusionMatrix, scores: list[MetricScore]) -> str:
    total = _total(cm.total)
    total_str = str(total) if isinstance(total, int) else f"{total:.12g}"
    lines = [
        f"input: {config.input_path}",
        f"classes: {cm.n} ({', '.join(cm.labels)})  total: {total_str}",
    ]
    for s in scores:
        params = ""
        if s.parameters:
            inner = ",".join(f"{k}={v}" for k, v in sorted(s.parameters.items()))
            params = f"[{inner}]"
        lines.append(f"{s.metric_id}{params} = {s.value:.12g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gofmetrics",
        description="Goodness-of-fit metrics for a multi-class confusion matrix.",
    )
    parser.add_argument("--input", required=True, help="path to the input file")
    parser.add_argument(
        "--format",
        choices=sorted(_PARSERS),
        default="matrix_csv",
        help="input layout (default: matrix_csv)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        required=True,
        metavar="NAME[:outer=AVG][:p=FLOAT]",
        help="metric to evaluate; repeatable",
    )
    parser.add_argument(
        "--smooth",
        type=float,
        default=None,
        metavar="ALPHA",
        help="add ALPHA to every cell before computing",
    )
    parser.add_argument(
        "--output", choices=["text", "json"], default="text", help="report format"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        requests = tuple(parse_metric_request(m) for m in args.metric)
        config = RunConfig(
            input_path=args.input,
            input_format=args.format,
            metrics=requests,
            output_format=args.output,
            smoothing=args.smooth,
        )
        cm, scores = run(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    renderer = render_json if config.output_format == "json" else render_text
    sys.stdout.write(renderer(config, cm, scores))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
