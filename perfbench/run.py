"""Benchmark for gofmetrics: seeded workloads checked against numpy references.

    python3 perfbench/run.py --workload small_panel --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and nowhere else.  Workloads (see README.md):

  small_panel  stream of small tables (n in 2..20), full scoring panel
  wide_gmcc    ImageNet-val-like tables, n cycling over 300 and 1000,
               determinant family only
  cli_pairs    `python -m gofmetrics.cli` on a 10^6-row label-pairs CSV

Each is a closed loop from one process and one thread, pinned with its
children to one CPU.  With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics, timed against sampler.py's calibration
kernel; with --trace 1 the public functions of every layer are wrapped
from here and the JSON holds the per-layer metrics.  Lines before it are a
readable summary; a full record of the run is written under .perfbench/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, for this process and every child it starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SPAWNS = 7
# the sampler kernel's time on the baseline machine while a workload
# shares its CPU, and how far around an operation its samples are taken
CAL_REF_S = 6.0e-4
CAL_PAD_S = 0.25
SMALL_SCORES = (
    "generalized_mcc", "generalized_f1", "generalized_f1:harmonic", "generalized_fm", "cramers_phi",
    "lp_multiclass:p=-1", "one_vs_one_mcc:min", "one_vs_one_f1", "one_vs_one_lp_four_rate:p=-1",
)
IMPORT_ONLY = "import gofmetrics, gofmetrics.cli"
CLI_METRICS = ("generalized_mcc", "generalized_f1", "cramers_phi", "one_vs_one_mcc:outer=min")
CLI_SCORES = ("generalized_mcc", "generalized_f1", "cramers_phi", "one_vs_one_mcc:min")
WIDE_SCORES = ("generalized_mcc", "generalized_f1", "generalized_fm", "cramers_phi", "lp_multiclass:p=-1")
# in-process CLI runs per phase of a traced cli_pairs run, and floor repeats
CLI_TRACED_CALLS = 2
FLOOR_REPEATS = 3
# seconds of untraced operations per block of a traced library run
TRACE_BLOCK_S = 1.0


@dataclass
class Outcome:
    """What a run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    exceptions: list = field(default_factory=list)
    underflow_zeros: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    raw: dict = field(default_factory=dict)  # uncalibrated timings, same form
    calibration: dict = field(default_factory=dict)
    latencies_ms: dict = field(default_factory=dict)  # per operation, in order
    samples: dict = field(default_factory=dict)  # name -> sample count
    properties: dict = field(default_factory=dict)


# ------------------------------------------------------------------ helpers

class SpeedSampler:
    """Client of sampler.py, which times a fixed kernel on this CPU every
    20 ms while the benchmark runs, and calibrates wall times with it.

    On a shared machine the CPU's speed drifts by tens of percent within
    seconds and between minutes, which no amount of averaging inside one
    run removes.  A calibrated duration is the wall duration, less the
    sampler's own kernel time inside it, scaled by CAL_REF_S over the median
    kernel time sampled from CAL_PAD_S before the interval to CAL_PAD_S
    after it: the time the operation would take where the kernel takes
    CAL_REF_S.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sampler.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples = None

    def stop(self) -> None:
        if self.samples is None:
            try:
                out, _ = self._proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.communicate()
                raise
            self.samples = np.asarray(json.loads(out), dtype=np.int64).reshape(-1, 2)

    def scale(self, intervals: list[tuple[int, int]]) -> list[float]:
        """Calibrated seconds of (start ns, end ns) intervals.

        The sampler's own kernel runs inside an interval took the shared
        CPU from the operation, so their time is subtracted first.
        """
        self.stop()
        starts, kernel_ns = self.samples[:, 0], self.samples[:, 1]
        ends = starts + kernel_ns
        longest = int(kernel_ns.max(initial=0))
        pad = int(CAL_PAD_S * 1e9)
        scaled = []
        for start, end in intervals:
            near = kernel_ns[np.searchsorted(starts, start - pad):np.searchsorted(starts, end + pad, side="right")]
            lo, hi = np.searchsorted(starts, start - longest), np.searchsorted(starts, end)
            stolen = np.clip(np.minimum(ends[lo:hi], end) - np.maximum(starts[lo:hi], start), 0, None).sum()
            speed = np.median(near if len(near) else kernel_ns) / 1e9
            scaled.append((end - start - stolen) / 1e9 * CAL_REF_S / speed)
        return scaled


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Client of spawner.py, the small process that starts every child."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(ROOT), str(WORK)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
        )

    def run(self, argv: list[str]) -> dict:
        """start_ns, end_ns, code, rss_mb, stdout and stderr of one child run to exit."""
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        return json.loads(line)

    def close(self) -> None:
        # stdin closed: the spawner process ends
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def import_spawns(spawner: Spawner, count: int):
    """(start ns, end ns) intervals and peak RSS of fresh interpreters
    importing the package."""
    argv = [sys.executable, "-c", IMPORT_ONLY]
    spawner.run(argv)  # fills the bytecode cache
    intervals, rss = [], []
    for _ in range(count):
        child = spawner.run(argv)
        if child["code"] != 0:
            raise RuntimeError(f"importing gofmetrics failed: {child['stderr']}")
        intervals.append((child["start_ns"], child["end_ns"]))
        rss.append(child["rss_mb"])
    return intervals, rss


def self_peak_rss_mb() -> float:
    # VmHWM is the peak of this process's own address space; ru_maxrss
    # would also count the peak of whatever process forked it
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timing_metrics(out: Outcome, sampler: SpeedSampler, setup: list, ops: list) -> None:
    """End-to-end timings, calibrated and raw, from (start ns, end ns)
    intervals of the import-only children and of the operations."""
    for key, target, scale in (("calibrated", out.metrics, sampler.scale), ("raw", out.raw, _wall)):
        setup_s, op_s = scale(setup), scale(ops)
        ms = out.latencies_ms[key] = [t * 1000.0 for t in op_s]
        target["setup_s"] = (statistics.median(setup_s), "s")
        target["matrices_per_s"] = (len(op_s) / sum(op_s), "1/s")
        target["matrix_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
        target["matrix_ms_p99"] = (float(np.percentile(ms, 99)), "ms")
    out.samples["setup_s"] = len(setup)
    kernel_s = sampler.samples[:, 1] / 1e9
    out.calibration = {"kernel_s_median": float(np.median(kernel_s)), "samples": len(kernel_s)}
    for name in ("matrices_per_s", "matrix_ms_p50", "matrix_ms_p99"):
        out.samples[name] = len(ops)


def _wall(intervals) -> list[float]:
    return [(end - start) / 1e9 for start, end in intervals]


def record_failures(out: Outcome, wrong: list[str], underflow: bool, times: int = 1) -> None:
    # an underflow zero is within 1e-308 of the true score, so it is
    # counted on its own and is not a failed operation
    out.failed += times if wrong else 0
    out.underflow_zeros += times if underflow else 0
    out.wrong.extend(wrong)


# ---------------------------------------------------------- library workloads

def scoring_panel(gm, names):
    """name -> callable(cm).  Lookups go through the package at call time, so
    a traced run sees the wrappers."""
    every = {
        "generalized_mcc": lambda cm: gm.generalized_mcc(cm),
        "generalized_f1": lambda cm: gm.generalized_f1(cm),
        "generalized_f1:harmonic": lambda cm: gm.generalized_f1(cm, gm.HARMONIC),
        "generalized_fm": lambda cm: gm.generalized_fm(cm),
        "cramers_phi": lambda cm: gm.cramers_phi(cm),
        "lp_multiclass:p=-1": lambda cm: gm.lp_multiclass(cm, -1.0),
        "one_vs_one_mcc:min": lambda cm: gm.one_vs_one_average(cm, "mcc", gm.MIN).value,
        "one_vs_one_f1": lambda cm: gm.one_vs_one_average(cm, "f1").value,
        "one_vs_one_lp_four_rate:p=-1": lambda cm: gm.one_vs_one_average(cm, "lp_four_rate", p=-1.0).value,
    }
    return [(name, every[name]) for name in names]


def drive(op, pool, unit: int, seconds: float | None, limit: int | None = None, tracer=None, offset: int = 0):
    """Closed loop over the pool in order from `offset`, whole units of
    tables at a time, until `seconds` of operation time or `limit` operations.

    Returns ((start ns, end ns) per op, pool index per op, first output
    per index, nondeterministic indices, exceptions per index).
    """
    intervals, order, first, unstable, raised = [], [], {}, set(), {}
    spent = 0
    while (spent < seconds * 1e9 if limit is None else len(order) < limit) or len(order) % unit:
        idx = (offset + len(order)) % len(pool)
        start = time.perf_counter_ns()
        try:
            result = tracer.op(op, pool[idx]) if tracer else op(pool[idx])
        except Exception as exc:  # a failed operation is counted, never fatal
            result = None
            raised[idx] = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        intervals.append((start, end))
        order.append(idx)
        spent += end - start
        if result is not None:
            if idx not in first:
                first[idx] = result
            elif result != first[idx]:
                unstable.add(idx)
    return intervals, order, first, unstable, raised


def verify_tables(out: Outcome, pool, names, order, first, unstable, raised, refs: dict) -> None:
    """Check every op's output; references are cached per pool index."""
    out.attempted += len(order)
    for idx, times in Counter(order).items():
        if idx in raised:
            out.failed += times
            out.exceptions.append(f"table {idx}: {raised[idx]}")
            continue
        wrong, underflow = ref.check(pool[idx], dict(zip(names, first[idx])), table_refs(refs, pool, idx, names))
        wrong = [f"table {idx}: {w}" for w in wrong]
        if idx in unstable:
            wrong.append(f"table {idx}: output changed between repeats")
        record_failures(out, wrong, underflow, times)


def table_refs(refs: dict, pool, idx: int, names) -> dict:
    if idx not in refs:
        refs[idx] = ref.reference_scores(pool[idx], names)
    return refs[idx]


def table_properties(pool, kinds, indices, refs, names) -> dict:
    idx = sorted(set(indices))
    sizes = [pool[i].shape[0] for i in idx]
    accuracy = [float(np.trace(pool[i]) / pool[i].sum()) for i in idx]
    logdets = [table_refs(refs, pool, i, names)["generalized_mcc"][1] for i in idx]
    underflow = [
        not ref.structural_zero(pool[i]) and -np.inf < ld <= ref.LOG_TINY for i, ld in zip(idx, logdets)
    ]
    kind_counts = Counter(kinds[i] for i in idx)
    return {
        "tables": len(idx),
        "n_min": min(sizes),
        "n_max": max(sizes),
        "n_mean": float(np.mean(sizes)),
        "n_counts": {str(n): sizes.count(n) for n in sorted(set(sizes))},
        "accuracy_min": min(accuracy),
        "accuracy_max": max(accuracy),
        "never_predicted_share": float(np.mean([ref.never_predicted(pool[i]) for i in idx])),
        "logdet_underflow_share": float(np.mean(underflow)),
        "kind_shares": {k: v / len(idx) for k, v in sorted(kind_counts.items())},
    }


def run_library(args, gm, spawner, sampler, pool, kinds, names, unit: int) -> Outcome:
    out = Outcome()
    panel = scoring_panel(gm, names)

    def op(counts):
        cm = gm.ConfusionMatrix.from_counts(counts)
        return tuple(score(cm) for _, score in panel)

    refs: dict = {}
    if not args.trace:
        setup, _ = import_spawns(spawner, SETUP_SPAWNS)
        intervals, order, first, unstable, raised = drive(op, pool, unit, args.seconds)
        timing_metrics(out, sampler, setup, intervals)
        out.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MB")
        out.samples["peak_rss_mb"] = 1
        verify_tables(out, pool, names, order, first, unstable, raised, refs)
        out.properties = table_properties(pool, kinds, order, refs, names)
        return out

    # blocks of tables scored untraced, then again traced: the ratio of the
    # two is the tracing overhead, and alternating keeps drift in the
    # machine's speed out of it
    tracer = Tracer(units=TRACE_UNITS)
    plain, traced_order = 0.0, []
    while plain < args.seconds / 2:
        intervals, order, first, unstable, raised = drive(op, pool, unit, TRACE_BLOCK_S, offset=len(traced_order))
        verify_tables(out, pool, names, order, first, unstable, raised, refs)
        plain += sum(_wall(intervals))
        tracer.install("gofmetrics", counted_classes=("binary.BinaryView",))
        try:
            _, order, first, unstable, raised = drive(op, pool, unit, None, len(order), tracer, len(traced_order))
        finally:
            tracer.uninstall()
        verify_tables(out, pool, names, order, first, unstable, raised, refs)
        traced_order += order
    floors = floor_times([pool[i] for i in traced_order])
    out.metrics = layer_metrics(tracer, floors, plain, out)
    out.properties = table_properties(pool, kinds, traced_order, refs, names)
    tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    return out


def run_small_panel(args, gm, spawner, sampler) -> Outcome:
    pool, kinds = wl.small_panel_tables(args.seed)
    return run_library(args, gm, spawner, sampler, pool, kinds, list(SMALL_SCORES), unit=1)


def run_wide_gmcc(args, gm, spawner, sampler) -> Outcome:
    pool, kinds = wl.wide_tables(args.seed)
    return run_library(args, gm, spawner, sampler, pool, kinds, list(WIDE_SCORES), unit=len(wl.WIDE_CYCLE))


# ----------------------------------------------------------------- cli_pairs

def cli_argv(csv_path: Path) -> list[str]:
    argv = ["--input", str(csv_path.relative_to(ROOT)), "--format", "pairs_csv", "--output", "json"]
    for metric in CLI_METRICS:
        argv += ["--metric", metric]
    return argv


def check_report(text: str, counts: np.ndarray, refs: dict) -> tuple[list[str], bool]:
    try:
        report = json.loads(text)
        values = {name: s["value"] for name, s in zip(CLI_SCORES, report["scores"])}
        ids = [s["metric"] for s in report["scores"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"], False
    wrong = []
    if ids != [m.split(":")[0] for m in CLI_METRICS]:
        wrong.append(f"report lists metrics {ids}")
    if report.get("n_classes") != counts.shape[0] or report.get("total") != int(counts.sum()):
        wrong.append(f"report has n_classes={report.get('n_classes')} total={report.get('total')}")
    more, underflow = ref.check(counts, values, refs)
    return wrong + more, underflow


def run_cli_pairs(args, gm, spawner, sampler) -> Outcome:
    import gofmetrics.cli as cli

    out = Outcome()
    if not args.trace:
        setup, _ = import_spawns(spawner, SETUP_SPAWNS)
    truth, pred = wl.cli_pairs(args.seed)
    csv_path = WORK / f"pairs-seed{args.seed}-{os.getpid()}.csv"
    wl.write_pairs_csv(csv_path, truth, pred)
    try:
        tally_floor = []
        for _ in range(FLOOR_REPEATS if args.trace else 1):
            start = time.perf_counter()
            labels, counts = ref.tally(truth, pred)
            tally_floor.append(time.perf_counter() - start)
        refs = ref.reference_scores(counts, CLI_SCORES)
        out.properties = {
            "rows": wl.CLI_ROWS,
            "classes": len(labels),
            "accuracy": float(np.trace(counts) / counts.sum()),
            "never_predicted_share": float(ref.never_predicted(counts)),
            "logdet_underflow_share": float(-np.inf < refs["generalized_mcc"][1] <= ref.LOG_TINY),
            "csv_bytes": csv_path.stat().st_size,
        }
        argv = [sys.executable, "-m", "gofmetrics.cli"] + cli_argv(csv_path)
        if not args.trace:
            intervals, peaks = [], []
            while sum(_wall(intervals)) < args.seconds:
                child = spawner.run(argv)
                intervals.append((child["start_ns"], child["end_ns"]))
                peaks.append(child["rss_mb"])
                check_cli_run(out, child, counts, refs)
            timing_metrics(out, sampler, setup, intervals)
            out.metrics["peak_rss_mb"] = (max(peaks), "MB")
            out.samples["peak_rss_mb"] = len(peaks)
            return out

        # the CLI's peak memory and its interpreter floor, before this
        # process has run the CLI in-process
        child = spawner.run(argv)
        check_cli_run(out, child, counts, refs)
        _, floor_rss = import_spawns(spawner, FLOOR_REPEATS)

        def op(cli_args):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(cli_args)
            return {"code": code, "stdout": buf.getvalue(), "stderr": ""}

        check_cli_run(out, op(cli_argv(csv_path)), counts, refs)  # warm-up
        tracer = Tracer(units=TRACE_UNITS)
        plain = 0.0
        for _ in range(CLI_TRACED_CALLS):
            start = time.perf_counter()
            check_cli_run(out, op(cli_argv(csv_path)), counts, refs)
            plain += time.perf_counter() - start
            tracer.install("gofmetrics", counted_classes=("binary.BinaryView",))
            try:
                result = tracer.op(op, cli_argv(csv_path))
            finally:
                tracer.uninstall()
            check_cli_run(out, result, counts, refs)
        floors = floor_times([counts] * CLI_TRACED_CALLS)
        floors["tally_s"] = statistics.median(tally_floor) * CLI_TRACED_CALLS
        out.metrics = layer_metrics(tracer, floors, plain, out)
        out.metrics["cli.main.peak_rss_floor_mb"] = (statistics.median(floor_rss), "MB")
        out.metrics["cli.main.peak_rss_rows_mb"] = (child["rss_mb"] - statistics.median(floor_rss), "MB")
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        return out
    finally:
        csv_path.unlink(missing_ok=True)


def check_cli_run(out: Outcome, child: dict, counts, refs) -> None:
    out.attempted += 1
    if child["code"] != 0:
        out.failed += 1
        out.exceptions.append(f"exit {child['code']}: {child['stderr'].strip()[-300:]}")
        return
    wrong, underflow = check_report(child["stdout"], counts, refs)
    record_failures(out, wrong, underflow)


# ------------------------------------------------------------ traced metrics

def _pairs(args, result) -> int:
    return args[0].n * (args[0].n - 1) // 2


TRACE_UNITS = {
    "confusion.normalized_matrix": lambda args, result: result.n**2,
    "multiclass.one_vs_one_average": _pairs,
    "confusion.ConfusionMatrix.from_label_pairs": lambda args, result: int(result.total),
    "cli.parse_pairs_csv": lambda args, result: int(result.total),
}

# (layer, span-name prefixes); the first layer whose prefix matches wins
LAYERS = (
    ("ingestion", ("cli.parse_", "confusion.ConfusionMatrix.")),
    ("cli", ("cli.",)),
    ("normalization", ("confusion.normalized_matrix", "confusion.row_conditional", "confusion.col_conditional")),
    ("determinant", ("multiclass.generalized_mcc",)),
    ("one_vs_one", ("multiclass.one_vs_one_average", "confusion.restrict_to_pair", "binary.BinaryView")),
    ("metrics", ("multiclass.",)),
    ("binary", ("binary.",)),
    ("means", ("means.",)),
)
SCORING = ("generalized_mcc", "generalized_f1", "generalized_fm", "cramers_phi", "lp_multiclass", "one_vs_one_average")


def floor_times(tables) -> dict:
    """Array-operation floors on the same tables the traced ops scored."""
    norm = det = 0.0
    for counts in tables:
        start = time.perf_counter()
        values = ref.normalized(counts)
        mid = time.perf_counter()
        np.linalg.slogdet(values)
        norm += mid - start
        det += time.perf_counter() - mid
    return {"normalized_s": norm, "slogdet_s": det, "tally_s": 0.0}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, floors: dict, untraced_s: float, out: Outcome) -> dict:
    calls, units, busy = defaultdict(int), defaultdict(int), defaultdict(float)
    layer_self = defaultdict(float)
    means_calls, means_busy, det_busy = 0, 0.0, 0.0
    for node in tracer.nodes():
        if node is tracer.root:
            layer_self["harness"] += node.self_ns / 1e9
            continue
        name = node.name
        calls[name] += node.calls
        units[name] += node.units
        outer = node.parent
        while outer is not None and outer.name != name:
            outer = outer.parent
        if outer is None:
            busy[name] += node.total_ns / 1e9
        layer = next((lay for lay, pre in LAYERS if name.startswith(pre)), "other")
        layer_self[layer] += node.self_ns / 1e9
        if name.startswith("means.") and not node.parent.name.startswith("means."):
            means_calls += node.calls
            means_busy += node.total_ns / 1e9
        if name == "multiclass.generalized_mcc":
            inner = node.children.get("confusion.normalized_matrix")
            det_busy += (node.total_ns - (inner.total_ns if inner else 0)) / 1e9

    traced_s = tracer.root.total_ns / 1e9
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    rows = units["cli.parse_pairs_csv"]
    put("cli.parse_pairs_csv.busy_s", busy["cli.parse_pairs_csv"], "s")
    put("cli.parse_pairs_csv.rows", rows, "count")
    put("cli.parse_pairs_csv.ns_per_row", _ratio(busy["cli.parse_pairs_csv"] * 1e9, rows), "ns")
    fl = "confusion.ConfusionMatrix.from_label_pairs"
    put("confusion.from_label_pairs.busy_s", busy[fl], "s")
    put("confusion.from_label_pairs.ns_per_pair", _ratio(busy[fl] * 1e9, units[fl]), "ns")
    put("confusion.from_label_pairs.floor_ratio", _ratio(busy[fl], floors["tally_s"]), "ratio")
    put("cli.run.busy_s", busy["cli.run"], "s")
    put("cli.render_json.busy_s", busy["cli.render_json"], "s")
    # measured from CLI children by run_cli_pairs; 0 where no CLI runs
    put("cli.main.peak_rss_floor_mb", 0.0, "MB")
    put("cli.main.peak_rss_rows_mb", 0.0, "MB")
    put("confusion.from_counts.calls", calls["confusion.ConfusionMatrix.from_counts"], "count")
    put("confusion.from_counts.busy_s", busy["confusion.ConfusionMatrix.from_counts"], "s")
    nm = "confusion.normalized_matrix"
    put(f"{nm}.calls", calls[nm], "count")
    put(f"{nm}.busy_s", busy[nm], "s")
    put(f"{nm}.cells", units[nm], "count")
    put(f"{nm}.ns_per_cell", _ratio(busy[nm] * 1e9, units[nm]), "ns")
    put(f"{nm}.floor_ratio", _ratio(busy[nm], floors["normalized_s"]), "ratio")
    put("multiclass.det.busy_s", det_busy, "s")
    put("multiclass.det.floor_ratio", _ratio(det_busy, floors["slogdet_s"]), "ratio")
    put("multiclass.generalized_mcc.underflow_zeros", out.underflow_zeros, "count")
    for fn in SCORING:
        put(f"multiclass.{fn}.calls", calls[f"multiclass.{fn}"], "count")
        put(f"multiclass.{fn}.busy_s", busy[f"multiclass.{fn}"], "s")
    ovo = "multiclass.one_vs_one_average"
    put(f"{ovo}.pairs", units[ovo], "count")
    put(f"{ovo}.ns_per_pair", _ratio(busy[ovo] * 1e9, units[ovo]), "ns")
    put("confusion.restrict_to_pair.calls", calls["confusion.restrict_to_pair"], "count")
    put("binary.views", calls["binary.BinaryView"], "count")
    put("means.calls", means_calls, "count")
    put("means.busy_s", means_busy, "s")
    for layer in [lay for lay, _ in LAYERS] + ["other", "harness"]:
        put(f"layer.{layer}.self_s", layer_self[layer], "s")
    put("trace.wall_s", traced_s, "s")
    put("trace.self_time_share", _ratio(traced_s - layer_self["harness"], traced_s), "ratio")
    put("trace.overhead_ratio", _ratio(traced_s, untraced_s), "ratio")
    put("bench.error_rate", _ratio(out.failed, out.attempted), "ratio")
    return m


# ---------------------------------------------------------------------- main

WORKLOADS = {
    "small_panel": run_small_panel,
    "wide_gmcc": run_wide_gmcc,
    "cli_pairs": run_cli_pairs,
}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "calibration_ref_s": CAL_REF_S,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def summary(args, out: Outcome) -> list[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    lines.append("environment " + json.dumps(environment(), sort_keys=True))
    lines.append("inputs " + json.dumps(out.properties, sort_keys=True))
    for name, (value, unit) in out.metrics.items():
        count = out.samples.get(name)
        raw = f" (raw {out.raw[name][0]:.6g})" if name in out.raw else ""
        lines.append(f"  {name:<44} {value:>14.6g} {unit:<6}" + (f" n={count}" if count else "") + raw)
    if args.workload == "cli_pairs" and not args.trace:
        per_s, p50 = out.metrics["matrices_per_s"][0], out.metrics["matrix_ms_p50"][0]
        n = out.samples["matrix_ms_p50"]
        lines.append(f"  {'rows_per_s':<44} {per_s * wl.CLI_ROWS:>14.6g} {'1/s':<6} n={n}")
        lines.append(f"  {'cli_s_p50':<44} {p50 / 1000:>14.6g} {'s':<6} n={n}")
    lines.append(
        f"  {'error_rate':<44} {_ratio(out.failed, out.attempted):>14.6g} {'ratio':<6} "
        f"n={out.attempted} (failed {out.failed}, underflow zeros {out.underflow_zeros}, "
        f"wrong values {len(out.wrong)}, exceptions {len(out.exceptions)})"
    )
    lines += [f"  wrong: {w}" for w in out.wrong[:5]]
    lines += [f"  exception: {e}" for e in out.exceptions[:5]]
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gofmetrics" / "__init__.py").is_file():
        print(f"error: no gofmetrics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gofmetrics
    import gofmetrics.cli  # noqa: F401  (loaded so its functions are traced)

    if SRC not in Path(gofmetrics.__file__).resolve().parents:
        print(f"error: gofmetrics imported from {gofmetrics.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # one CPU for this process and its children, so that the calibration
    # kernel runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawner = Spawner()
    sampler = SpeedSampler() if not args.trace else None
    try:
        out = WORKLOADS[args.workload](args, gofmetrics, spawner, sampler)
    finally:
        spawner.close()
        if sampler:
            sampler.stop()
    for line in summary(args, out):
        print(line)
    # a wrong value is a failed op too; `correct` is false only when some
    # output disagrees with a value the reference pins down
    result = {
        "correct": not out.wrong,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.metrics.items()},
    }
    record = dict(result, environment=environment(), inputs=out.properties, samples=out.samples,
                  raw_metrics={k: {"value": v, "unit": u} for k, (v, u) in out.raw.items()},
                  calibration=out.calibration, latencies_ms=out.latencies_ms,
                  wrong=out.wrong, exceptions=out.exceptions, underflow_zeros=out.underflow_zeros)
    with open(WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
