"""Summarize paired benchmark runs of a parent and a change into one JSON file.

    python3 tools/bench_summary.py --parent DIR --parent-commit SHA \\
        --change DIR --change-commit SHA --output BENCH_<n>.json \
        [--claim WORKLOAD/METRIC]

Each DIR is the root of a checkout in which `perfbench/run.py` ran with
`--trace 0`, once per seed; its `.perfbench/run-<workload>-seed<s>-trace0.json`
records are read.  For each workload the output holds the two commits, the
seeds each side ran, every run's end-to-end metrics with its `attempted` and
`failed` counts, and for each end-to-end metric of BENCHMARK.json the median
and quartiles of each side, the ratio of the medians (null where the
parent's median is 0), how many of the seeds both sides ran the change
won (ties count for neither), and whether the metric is resolved: it is not
where the parent's interquartile spread exceeds the metric's bound times the
parent's median, unless every change run is better than every parent run.
Such a metric reads `unresolved` on its printed line.  Where the run
records hold the uncalibrated timings (`raw_metrics`), each such row also
holds a `raw` object with their spreads, ratio and wins, and its printed
line gives the raw ratio: calibration can rank the two sides apart from
the wall clock.

With `--claim WORKLOAD/METRIC` the output also holds a top-level `claim`
object for that metric, judged by the rule a claimed gain must meet: the
change won at least nine tenths of at least ten pairs, ties counting for
neither, and its median beats the parent's, in the metric's better
direction, by more than the parent's interquartile range, and no run of a
seed both sides ran, on either side, is incorrect or has a failed operation.
One line says whether it is met and names each such run; a workload or
metric with no row exits 2.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
RUN_NAME = re.compile(r"run-(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")


def read_runs(checkout: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> the run record, from a checkout's .perfbench/."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted((checkout / ".perfbench").glob("run-*-trace0.json")):
        match = RUN_NAME.fullmatch(path.name)
        if match:
            record = json.loads(path.read_text(encoding="utf-8"))
            runs.setdefault(match["workload"], {})[int(match["seed"])] = record
    return runs


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles; a single run is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: dict[int, dict], change: dict[int, dict], metrics: list[dict]) -> dict:
    both = sorted(set(parent) & set(change))
    out = {
        "seeds": {"parent": sorted(parent), "change": sorted(change), "paired": both},
        "runs": {
            side: [
                {
                    "seed": seed,
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "correct": record["correct"],
                    "metrics": {k: v["value"] for k, v in record["metrics"].items()},
                }
                for seed, record in sorted(runs.items())
            ]
            for side, runs in (("parent", parent), ("change", change))
        },
        "metrics": {},
    }
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        compared = compare(parent, change, "metrics", name, higher)
        if compared is None:
            continue
        sides, stats = compared
        row = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
        row.update(stats)
        base = row["parent"]["median"]
        wide = row["parent"]["q3"] - row["parent"]["q1"] > metric["bound"] * abs(base)
        if higher:
            apart = min(sides["change"]) > max(sides["parent"])
        else:
            apart = max(sides["change"]) < min(sides["parent"])
        row["resolved"] = not wide or apart
        raw = compare(parent, change, "raw_metrics", name, higher)
        if raw is not None:
            row["raw"] = raw[1]
        out["metrics"][name] = row
    return out


def compare(
    parent: dict[int, dict], change: dict[int, dict], key: str, name: str, higher: bool
) -> tuple[dict[str, list[float]], dict] | None:
    """Metric `name` of each run's `key` dict ("metrics", or "raw_metrics" for the
    uncalibrated timings) on each side: the values, and their spreads, the ratio
    of the medians (null over 0) and the wins over the seeds both sides ran.
    None where a side has no run with the metric."""

    def value(record: dict) -> float | None:
        entry = record.get(key, {}).get(name)
        return None if entry is None else entry["value"]

    sides = {
        side: [v for v in map(value, runs.values()) if v is not None]
        for side, runs in (("parent", parent), ("change", change))
    }
    if not sides["parent"] or not sides["change"]:
        return None
    stats = {side: spread(values) for side, values in sides.items()}
    base = stats["parent"]["median"]
    stats["median_ratio"] = stats["change"]["median"] / base if base else None
    pairs = [(value(parent[s]), value(change[s])) for s in sorted(set(parent) & set(change))]
    pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
    stats["wins"] = sum((c > p) if higher else (c < p) for p, c in pairs)
    stats["pairs"] = len(pairs)
    return sides, stats


def faulted_runs(summary: dict) -> list[str]:
    """The runs of a workload's summary, on either side, whose seed both sides ran and
    which are not `correct` or have failed operations, each as a short phrase."""
    paired, faulted = set(summary["seeds"]["paired"]), []
    for side, runs in summary["runs"].items():
        for run in runs:
            why = [] if run["correct"] else ["not correct"]
            if run["failed"]:
                why.append(f"{run['failed']} of {run['attempted']} failed")
            if why and run["seed"] in paired:
                faulted.append(f"{side} seed {run['seed']} {' and '.join(why)}")
    return faulted


def judge_claim(workload: str, metric: str, row: dict, faulted: Sequence[str] = ()) -> dict:
    """The claim that `metric` on `workload` improved, judged from its summary row and
    the workload's `faulted_runs`: a gain read from a run at fault is no gain."""
    parent, change = row["parent"], row["change"]
    gap = change["median"] - parent["median"]
    if row["better"] == "lower":
        gap = -gap
    iqr = parent["q3"] - parent["q1"]
    wins, pairs = row["wins"], row["pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "pairs": pairs,
        "wins": wins,
        "parent_iqr": iqr,
        "median_gap": gap,  # positive where the change's median is better
        "faulted_runs": list(faulted),
        "met": pairs >= 10 and 10 * wins >= 9 * pairs and gap > iqr and not faulted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent runs")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change runs")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC", help="judge a claimed gain")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    parent, change = read_runs(args.parent), read_runs(args.change)
    workloads = sorted(set(parent) & set(change))
    if not workloads:
        print("error: no workload has trace-0 runs under both checkouts", file=sys.stderr)
        return 2
    environment = next(iter(next(iter(change.values())).values()))["environment"]
    summary = {
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "environment": environment,
        "workloads": {w: summarize(parent[w], change[w], metrics) for w in workloads},
    }
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in summary["workloads"]:
            print(f"error: no workload {workload!r} has runs on both sides", file=sys.stderr)
            return 2
        row = summary["workloads"][workload]["metrics"].get(metric)
        if row is None:
            print(f"error: no metric {metric!r} on workload {workload!r}", file=sys.stderr)
            return 2
        faulted = faulted_runs(summary["workloads"][workload])
        summary["claim"] = judge_claim(workload, metric, row, faulted)
    args.output.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for w in workloads:
        for name, row in summary["workloads"][w]["metrics"].items():
            p, c = row["parent"], row["change"]
            raw = f"  raw {_ratio(row['raw'])}" if "raw" in row else ""
            print(
                f"{w:<12} {name:<15} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                f"  {_ratio(row)}  wins {row['wins']}/{row['pairs']}{raw}"
                + ("" if row["resolved"] else "  unresolved")
            )
    claim = summary.get("claim")
    if claim is not None:
        print(
            f"claim {claim['workload']}/{claim['metric']}: wins {claim['wins']}/{claim['pairs']},"
            f" median gap {claim['median_gap']:.4g} against parent IQR {claim['parent_iqr']:.4g}:"
            + (" met" if claim["met"] else " not met")
            + (", at fault: " + "; ".join(claim["faulted_runs"]) if claim["faulted_runs"] else "")
        )
    return 0


def _ratio(stats: dict) -> str:
    ratio = stats["median_ratio"]
    return "x-" if ratio is None else f"x{ratio:.3f}"


if __name__ == "__main__":
    sys.exit(main())
