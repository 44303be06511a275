"""Scores under perfbench's call tracer equal the untraced ones.

The tracer rebinds every public function of the package to a wrapper
function while it is installed, so a code path that looks such a name up
at call time must still work through the wrapper.
"""

import importlib.util
from pathlib import Path

import numpy as np

from gofmetrics import multiclass
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


def _two_class_scores(cm2):
    # through the module's name, which the tracer rebinds
    return [
        multiclass.two_class_score(cm2, "mcc", 0),
        multiclass.two_class_score(cm2, "f1", 1),
        multiclass.two_class_score(cm2, "fowlkes_mallows", 0),
        multiclass.two_class_score(cm2, "lp_four_rate", 1, -1.0),
    ]


def test_traced_scores_equal_untraced():
    grid = np.array([[9, 2, 0, 1], [3, 7, 1, 0], [0, 2, 8, 4], [1, 0, 3, 6]])
    cm = ConfusionMatrix.from_counts(grid)
    cm2 = ConfusionMatrix.from_counts([[7, 2], [3, 5]])
    expected, expected_two_class = _scores(cm), _two_class_scores(cm2)
    tracer = _tracer()
    tracer.install("gofmetrics")
    try:
        traced, traced_two_class = _scores(cm), _two_class_scores(cm2)
    finally:
        tracer.uninstall()
    assert traced == expected
    assert traced_two_class == expected_two_class
    # the two-class entry went through its wrapper
    calls = [node.calls for node in tracer.nodes() if node.name == "multiclass.two_class_score"]
    assert sum(calls) >= 1
