"""Scores under perfbench's call tracer equal the untraced ones.

The tracer rebinds every public name of the package, a counted class
included, to a wrapper function while it is installed, so a code path that
looks such a name up at call time must still work through the wrapper.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gofmetrics import binary
from gofmetrics.confusion import ConfusionMatrix
from gofmetrics.multiclass import METRICS, evaluate_metric

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def _scores(cm):
    return {
        name: evaluate_metric(cm, name, p=-1.0 if info.needs_p else None).value
        for name, info in METRICS.items()
    }


def _binary_scores(cm2):
    # through the module's names, which the tracer rebinds
    view = binary.BinaryView(cm2, 1)
    return [
        binary.mcc_binary(view.swapped()),
        binary.f1_binary(view),
        binary.fowlkes_mallows_binary(view.swapped()),
        binary.lp_four_rate_score(view, -1.0),
    ]


def test_traced_scores_equal_untraced():
    grid = np.array([[9, 2, 0, 1], [3, 7, 1, 0], [0, 2, 8, 4], [1, 0, 3, 6]])
    cm = ConfusionMatrix.from_counts(grid)
    cm2 = ConfusionMatrix.from_counts([[7, 2], [3, 5]])
    expected, expected_binary = _scores(cm), _binary_scores(cm2)
    tracer = _tracer()
    tracer.install("gofmetrics", counted_classes=("binary.BinaryView",))
    try:
        assert not isinstance(binary.BinaryView, type)  # a wrapper function now
        traced, traced_binary = _scores(cm), _binary_scores(cm2)
    finally:
        tracer.uninstall()
    assert traced == expected
    assert traced_binary == expected_binary
    # the counted class went through its wrapper
    views = [node for node in tracer.nodes() if node.name == "binary.BinaryView"]
    assert sum(node.calls for node in views) >= 1
