"""The paired-run summary of `tools/bench_summary.py`, on small synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_summary = _load()

RATE = {"name": "matrices_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "matrix_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}


def record(**values):
    return {
        "attempted": 10,
        "failed": 0,
        "correct": True,
        "metrics": {name: {"value": value} for name, value in values.items()},
    }


def runs(name, values):
    # seed -> record, seeds 1, 2, ... in the order of `values`
    return {seed: record(**{name: v}) for seed, v in enumerate(values, start=1)}


class TestSpread:
    def test_quartiles_are_inclusive(self):
        # the exclusive method would put the quartiles of 1..4 at 1.25 and 3.75
        assert bench_summary.spread([4.0, 1.0, 3.0, 2.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25
        }
        assert bench_summary.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0
        }

    def test_single_run_is_its_own_quartiles(self):
        assert bench_summary.spread([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5}


class TestSummarize:
    def test_rows_hold_the_spreads_and_the_median_ratio(self):
        parent = runs("matrices_per_s", [1.0, 2.0, 3.0, 4.0])
        change = runs("matrices_per_s", [2.0, 4.0, 6.0, 8.0])
        row = bench_summary.summarize(parent, change, [RATE])["metrics"]["matrices_per_s"]
        assert row["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
        assert row["change"] == {"median": 5.0, "q1": 3.5, "q3": 6.5}
        assert row["median_ratio"] == 2.0
        assert (row["unit"], row["better"], row["bound"]) == ("1/s", "higher", 0.25)

    def test_single_run_per_side(self):
        out = bench_summary.summarize(
            runs("matrices_per_s", [3.0]), runs("matrices_per_s", [6.0]), [RATE]
        )
        row = out["metrics"]["matrices_per_s"]
        assert row["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
        assert row["change"] == {"median": 6.0, "q1": 6.0, "q3": 6.0}
        assert (row["wins"], row["pairs"]) == (1, 1)

    @pytest.mark.parametrize(
        "metric, wins",
        # change against parent, seed by seed: higher, equal, lower, higher
        [(RATE, 2), (LATENCY, 1)],
    )
    def test_wins_respect_better_and_ties_count_for_neither(self, metric, wins):
        name = metric["name"]
        parent = runs(name, [1.0, 2.0, 3.0, 4.0])
        change = runs(name, [1.5, 2.0, 2.5, 5.0])
        row = bench_summary.summarize(parent, change, [metric])["metrics"][name]
        assert (row["wins"], row["pairs"]) == (wins, 4)

    def test_wins_count_only_the_seeds_both_sides_ran(self):
        parent = runs("matrices_per_s", [1.0, 1.0, 1.0])
        change = {2: record(matrices_per_s=2.0), 3: record(matrices_per_s=2.0)}
        out = bench_summary.summarize(parent, change, [RATE])
        assert out["seeds"] == {"parent": [1, 2, 3], "change": [2, 3], "paired": [2, 3]}
        row = out["metrics"]["matrices_per_s"]
        assert (row["wins"], row["pairs"]) == (2, 2)

    def test_metric_missing_on_one_side_is_skipped(self):
        parent = {1: record(matrices_per_s=1.0, matrix_ms_p50=2.0)}
        change = {1: record(matrices_per_s=1.5)}
        out = bench_summary.summarize(parent, change, [RATE, LATENCY])
        assert list(out["metrics"]) == ["matrices_per_s"]

    def test_run_missing_a_metric_is_left_out_of_its_spread_and_pairs(self):
        parent = {1: record(matrices_per_s=1.0), 2: record(matrices_per_s=3.0)}
        change = {1: record(matrices_per_s=2.0), 2: record()}
        row = bench_summary.summarize(parent, change, [RATE])["metrics"]["matrices_per_s"]
        assert row["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
        assert (row["wins"], row["pairs"]) == (1, 1)

    def test_zero_parent_median_writes_a_row_with_a_null_ratio(self):
        out = bench_summary.summarize(
            runs("matrices_per_s", [0.0]), runs("matrices_per_s", [1.0]), [RATE]
        )
        row = out["metrics"]["matrices_per_s"]
        assert row["median_ratio"] is None
        assert (row["wins"], row["pairs"]) == (1, 1)
        assert '"median_ratio": null' in json.dumps(row)

    def test_runs_keep_their_counts_and_values(self):
        parent = {1: record(matrices_per_s=1.0)}
        change = {1: {**record(matrices_per_s=2.0), "failed": 3, "correct": False}}
        out = bench_summary.summarize(parent, change, [RATE])
        assert out["runs"]["change"] == [
            {
                "seed": 1,
                "attempted": 10,
                "failed": 3,
                "correct": False,
                "metrics": {"matrices_per_s": 2.0},
            }
        ]

    @pytest.mark.parametrize(
        "metric, parent, change, resolved",
        [
            # parent quartiles 1.75 and 3.25: a spread of 1.5 past 0.25 of the median 2.5
            (RATE, [1.0, 2.0, 3.0, 4.0], [3.5, 4.5, 5.5, 6.5], False),  # the runs overlap
            (RATE, [1.0, 2.0, 3.0, 4.0], [4.5, 5.0, 5.5, 6.0], True),  # every change run better
            (LATENCY, [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.9], True),
            (LATENCY, [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 1.0], False),  # a tie is not better
            # quartiles 9.9 and 10.1: a spread of 0.2 within 0.25 of the median 10
            (RATE, [9.8, 9.9, 10.0, 10.1, 10.2], [1.0, 9.0, 11.0, 30.0, 40.0], True),
        ],
    )
    def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_are_apart(
        self, metric, parent, change, resolved
    ):
        name = metric["name"]
        row = bench_summary.summarize(runs(name, parent), runs(name, change), [metric])
        assert row["metrics"][name]["resolved"] is resolved


class TestRawMetrics:
    def test_raw_timings_have_their_own_spreads_ratio_and_wins(self):
        # the calibrated rates favour the change, the raw ones the parent
        parent = {s: {**record(matrices_per_s=v), "raw_metrics": {"matrices_per_s": {"value": r}}}
                  for s, v, r in ((1, 1.0, 10.0), (2, 2.0, 12.0), (3, 3.0, 14.0))}
        change = {s: {**record(matrices_per_s=v), "raw_metrics": {"matrices_per_s": {"value": r}}}
                  for s, v, r in ((1, 2.0, 9.0), (2, 4.0, 11.0), (3, 6.0, 13.0))}
        row = bench_summary.summarize(parent, change, [RATE])["metrics"]["matrices_per_s"]
        assert (row["median_ratio"], row["wins"]) == (2.0, 3)
        assert row["raw"] == {
            "parent": {"median": 12.0, "q1": 11.0, "q3": 13.0},
            "change": {"median": 11.0, "q1": 10.0, "q3": 12.0},
            "median_ratio": 11.0 / 12.0,
            "wins": 0,
            "pairs": 3,
        }

    def test_a_metric_with_no_raw_figure_on_a_side_has_no_raw_row(self):
        # peak memory is not calibrated, so no run record holds it raw; older
        # records hold no raw figure at all
        parent = {1: {**record(matrices_per_s=1.0), "raw_metrics": {}}}
        row = bench_summary.summarize(parent, runs("matrices_per_s", [2.0]), [RATE])
        assert "raw" not in row["metrics"]["matrices_per_s"]

    def test_main_prints_the_raw_ratio_on_the_metric_line(self, tmp_path, capsys):
        argv = write_pairs(tmp_path, [2.0], [3.0])
        for side, value in (("parent", 8.0), ("change", 6.0)):
            path = tmp_path / side / ".perfbench" / "run-small_panel-seed1-trace0.json"
            run = json.loads(path.read_text(encoding="utf-8"))
            run["raw_metrics"] = {"matrices_per_s": {"value": value, "unit": "1/s"}}
            path.write_text(json.dumps(run), encoding="utf-8")
        assert bench_summary.main(argv) == 0
        assert capsys.readouterr().out.endswith("  x1.500  wins 1/1  raw x0.750\n")


def test_read_runs_takes_the_untraced_records(tmp_path):
    folder = tmp_path / ".perfbench"
    folder.mkdir()
    for name, value in [
        ("run-small_panel-seed2-trace0.json", 2.0),
        ("run-small_panel-seed10-trace0.json", 10.0),
        ("run-small_panel-seed2-trace1.json", -1.0),
    ]:
        (folder / name).write_text(json.dumps(record(matrices_per_s=value)), encoding="utf-8")
    read = bench_summary.read_runs(tmp_path)
    assert list(read) == ["small_panel"]
    assert sorted(read["small_panel"]) == [2, 10]
    assert read["small_panel"][10]["metrics"]["matrices_per_s"]["value"] == 10.0


def test_main_writes_and_prints_a_zero_parent_median(tmp_path, capsys):
    for side, value in (("parent", 0.0), ("change", 1.0)):
        folder = tmp_path / side / ".perfbench"
        folder.mkdir(parents=True)
        run = {**record(matrices_per_s=value), "environment": {"python": "3"}}
        (folder / "run-small_panel-seed1-trace0.json").write_text(json.dumps(run), encoding="utf-8")
    output = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--parent-commit", "a",
            "--change", str(tmp_path / "change"), "--change-commit", "b", "--output", str(output)]
    assert bench_summary.main(argv) == 0
    rows = json.loads(output.read_text(encoding="utf-8"))["workloads"]["small_panel"]["metrics"]
    assert rows["matrices_per_s"]["median_ratio"] is None
    assert "x-  wins 1/1\n" in capsys.readouterr().out


def test_main_prints_unresolved_on_the_metric_line(tmp_path, capsys):
    for side, values in (("parent", [1.0, 2.0, 3.0, 4.0]), ("change", [3.5, 4.5, 5.5, 6.5])):
        folder = tmp_path / side / ".perfbench"
        folder.mkdir(parents=True)
        for seed, value in enumerate(values, start=1):
            run = {**record(matrices_per_s=value, matrix_ms_p50=1.0), "environment": {}}
            name = f"run-small_panel-seed{seed}-trace0.json"
            (folder / name).write_text(json.dumps(run), encoding="utf-8")
    argv = ["--parent", str(tmp_path / "parent"), "--parent-commit", "a",
            "--change", str(tmp_path / "change"), "--change-commit", "b",
            "--output", str(tmp_path / "BENCH.json")]
    assert bench_summary.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("unresolved") for line in lines] == [True, False]
    assert lines[0].startswith("small_panel  matrices_per_s")


def write_pairs(root, parent, change, **extra):
    # one trace-0 small_panel run per seed and side, matrices_per_s as given
    for side, values in (("parent", parent), ("change", change)):
        folder = root / side / ".perfbench"
        folder.mkdir(parents=True)
        for seed, value in enumerate(values, start=1):
            run = {**record(matrices_per_s=value, **extra), "environment": {}}
            name = f"run-small_panel-seed{seed}-trace0.json"
            (folder / name).write_text(json.dumps(run), encoding="utf-8")
    return ["--parent", str(root / "parent"), "--parent-commit", "a",
            "--change", str(root / "change"), "--change-commit", "b",
            "--output", str(root / "BENCH.json")]


PARENT_RATES = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize(
    "change, wins, gap, met",
    [
        # parent quartiles 102.25 and 106.75: an IQR of 4.5 around the median 104.5
        ([v + 10.0 for v in PARENT_RATES], 10, 10.0, True),
        # 8 of 10 pairs won, by a gap past the IQR: too few wins
        ([v + 10.0 for v in PARENT_RATES[:8]] + [100.0, 101.0], 8, 8.0, False),
        # every pair won, by a gap inside the IQR
        ([v + 1.0 for v in PARENT_RATES], 10, 1.0, False),
    ],
    ids=["met", "8 wins of 10", "gap inside the IQR"],
)
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr(
    tmp_path, capsys, change, wins, gap, met
):
    argv = write_pairs(tmp_path, PARENT_RATES, change)
    assert bench_summary.main(argv + ["--claim", "small_panel/matrices_per_s"]) == 0
    claim = json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))["claim"]
    assert claim == {
        "workload": "small_panel",
        "metric": "matrices_per_s",
        "pairs": 10,
        "wins": wins,
        "parent_iqr": 4.5,
        "median_gap": pytest.approx(gap),
        "faulted_runs": [],
        "met": met,
    }
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"claim small_panel/matrices_per_s: wins {wins}/10, median gap ")
    assert last.endswith(" met") and ("not met" in last) is not met


@pytest.mark.parametrize(
    "faults, named",
    [
        ({("change", 3): {"correct": False}}, ["change seed 3 not correct"]),
        (
            {("parent", 2): {"failed": 1}, ("change", 7): {"correct": False, "failed": 4}},
            ["parent seed 2 1 of 10 failed", "change seed 7 not correct and 4 of 10 failed"],
        ),
    ],
    ids=["an incorrect run", "failed operations on both sides"],
)
def test_a_claim_read_from_a_run_at_fault_is_not_met_and_says_why(tmp_path, capsys, faults, named):
    # every pair won by a gap past the IQR, as in the met case above
    argv = write_pairs(tmp_path, PARENT_RATES, [v + 10.0 for v in PARENT_RATES])
    for (side, seed), fields in faults.items():
        path = tmp_path / side / ".perfbench" / f"run-small_panel-seed{seed}-trace0.json"
        run = {**json.loads(path.read_text(encoding="utf-8")), **fields}
        path.write_text(json.dumps(run), encoding="utf-8")
    assert bench_summary.main(argv + ["--claim", "small_panel/matrices_per_s"]) == 0
    claim = json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))["claim"]
    assert (claim["wins"], claim["faulted_runs"], claim["met"]) == (10, named, False)
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith(": not met, at fault: " + "; ".join(named))


def test_a_run_at_fault_on_a_seed_one_side_ran_alone_is_not_a_paired_fault():
    summary = bench_summary.summarize(
        runs("matrices_per_s", [1.0, 2.0]),
        {**runs("matrices_per_s", [3.0, 4.0]), 3: {**record(matrices_per_s=5.0), "failed": 1}},
        [RATE],
    )
    assert bench_summary.faulted_runs(summary) == []


def test_claim_on_a_lower_is_better_metric_reads_the_gap_downward():
    row = {"better": "lower", "wins": 10, "pairs": 10,
           "parent": {"median": 2.0, "q1": 1.9, "q3": 2.1},
           "change": {"median": 1.5, "q1": 1.4, "q3": 1.6}}
    claim = bench_summary.judge_claim("small_panel", "matrix_ms_p50", row)
    assert claim["median_gap"] == 0.5 and claim["met"]


@pytest.mark.parametrize(
    "claim, named",
    [("wide_gmcc/matrices_per_s", "'wide_gmcc'"), ("small_panel/tables_per_s", "'tables_per_s'")],
)
def test_claim_on_an_unknown_workload_or_metric_exits_2_naming_it(tmp_path, capsys, claim, named):
    argv = write_pairs(tmp_path, [1.0], [2.0])
    assert bench_summary.main(argv + ["--claim", claim]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


def test_without_a_claim_the_output_has_no_claim(tmp_path):
    argv = write_pairs(tmp_path, PARENT_RATES, PARENT_RATES)
    assert bench_summary.main(argv) == 0
    assert "claim" not in json.loads((tmp_path / "BENCH.json").read_text(encoding="utf-8"))
