"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain numpy data; the
program under test never sees the seed.  The same seed always yields the
same inputs.
"""

from __future__ import annotations

import numpy as np

SMALL_KINDS = ("balanced", "imbalanced", "never_predicted", "permutation", "smoothed")
SMALL_POOL = 4096

# three n=300 tables per n=1000 table: the median latency then falls inside
# one mode instead of between two, and n=1000 still takes most of the time
WIDE_CYCLE = (300, 300, 300, 1000)
WIDE_CYCLES = 4
WIDE_PER_CLASS = 50

CLI_ROWS = 10**6
# the 20 CIFAR-100 superclasses: realistic string labels of mixed length
CLI_LABELS = (
    "aquatic_mammals", "fish", "flowers", "food_containers",
    "fruit_and_vegetables", "household_electrical_devices",
    "household_furniture", "insects", "large_carnivores",
    "large_man-made_outdoor_things", "large_natural_outdoor_scenes",
    "large_omnivores_and_herbivores", "medium_mammals",
    "non-insect_invertebrates", "people", "reptiles", "small_mammals",
    "trees", "vehicles_1", "vehicles_2",
)


def _confusion_rows(rng, sizes, accuracy, n_confusable, focus):
    """Count table whose row i holds sizes[i] samples of true class i.

    Each class keeps a binomial share accuracy[i] on the diagonal; a share
    `focus` of its errors goes to a few confusable classes and the rest is
    spread uniformly, the pattern of a real classifier's mistakes.
    """
    n = len(sizes)
    hits = rng.binomial(sizes, accuracy)
    probs = np.full((n, n), (1.0 - focus) / (n - 1))
    k = min(n_confusable, n - 1)
    for i in range(n):
        others = rng.choice(n - 1, size=k, replace=False)
        probs[i, others + (others >= i)] += focus / k
    np.fill_diagonal(probs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    counts = rng.multinomial(sizes - hits, probs).astype(float)
    counts[np.arange(n), np.arange(n)] = hits
    return counts


def _drop_column(rng, counts, j=None):
    # the classifier never outputs class j: its predictions go to a neighbour
    n = counts.shape[0]
    j = int(rng.integers(n)) if j is None else j
    counts[:, (j + 1) % n] += counts[:, j]
    counts[:, j] = 0.0
    return counts


def _small_table(rng, n, kind):
    if kind == "permutation":
        counts = np.zeros((n, n))
        counts[np.arange(n), rng.permutation(n)] = rng.integers(1, 101, size=n)
        return counts
    if kind == "imbalanced":
        sizes = np.minimum(2000, 1 + (rng.pareto(1.2, n) * 20).astype(np.int64))
        return _confusion_rows(rng, sizes, rng.uniform(0.2, 0.95, n), 2, 0.7)
    sizes = np.full(n, int(rng.integers(5, 61)))
    counts = _confusion_rows(rng, sizes, rng.uniform(0.4, 0.95, n), 2, 0.7)
    if kind == "never_predicted":
        return _drop_column(rng, counts)
    if kind == "smoothed":
        return counts + float(rng.choice((0.1, 0.5, 1.0)))
    return counts


def small_panel_tables(seed: int) -> tuple[list[np.ndarray], list[str]]:
    """SMALL_POOL tables, n uniform in 2..20, kinds drawn uniformly."""
    rng = np.random.default_rng([seed, 1])
    tables, kinds = [], []
    for _ in range(SMALL_POOL):
        n = int(rng.integers(2, 21))
        kind = SMALL_KINDS[int(rng.integers(len(SMALL_KINDS)))]
        tables.append(_small_table(rng, n, kind))
        kinds.append(kind)
    return tables, kinds


def wide_tables(seed: int) -> tuple[list[np.ndarray], list[str]]:
    """WIDE_CYCLES cycles of ImageNet-val-like tables with n in WIDE_CYCLE order.

    50 samples per class and errors mostly on three confusable classes.
    The accuracies of the tables of each size are stratified over
    0.3..0.95, so every seed spans that range, and per-class accuracy
    scatters around the table's.  A quarter of the tables of each size
    never predict their last class.  Low-accuracy tables at n=1000 have log|det|
    far below the double range, which is what exposes the determinant's
    underflow.
    """
    rng = np.random.default_rng([seed, 2])
    sizes = list(WIDE_CYCLE) * WIDE_CYCLES
    strata, dropped = {}, {}
    for n in set(sizes):
        count = sizes.count(n)
        strata[n] = list(0.3 + 0.65 * (rng.permutation(count) + rng.random(count)) / count)
        dropped[n] = set(rng.choice(count, size=max(1, count // 4), replace=False).tolist())
    tables, kinds = [], []
    for k, n in enumerate(sizes):
        j = sizes[:k].count(n)
        acc = np.clip(rng.normal(strata[n][j], 0.08, n), 0.0, 1.0)
        counts = _confusion_rows(rng, np.full(n, WIDE_PER_CLASS), acc, 3, 0.9)
        if j in dropped[n]:
            # the last class, so that the hand-rolled elimination, which
            # stops at the first empty column, does the same work every seed
            counts = _drop_column(rng, counts, n - 1)
        kinds.append("never_predicted" if j in dropped[n] else "all_predicted")
        tables.append(counts)
    return tables, kinds


def cli_pairs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """CLI_ROWS (true, predicted) label pairs over CLI_LABELS, as bytes arrays."""
    rng = np.random.default_rng([seed, 3])
    k = len(CLI_LABELS)
    # balanced classes, like a validation set: the CSV's size then hardly
    # varies with the seed
    truth = rng.integers(k, size=CLI_ROWS)
    accuracy = rng.uniform(0.6, 0.95, k)
    confusable = np.stack([(np.arange(k) + s) % k for s in rng.integers(1, k, size=2)], axis=1)
    miss = rng.random(CLI_ROWS) >= accuracy[truth]
    focused = confusable[truth, rng.integers(0, 2, CLI_ROWS)]
    spread = (truth + rng.integers(1, k, CLI_ROWS)) % k
    pred = np.where(miss, np.where(rng.random(CLI_ROWS) < 0.8, focused, spread), truth)
    names = np.array(CLI_LABELS, dtype="S")
    return names[truth], names[pred]


def write_pairs_csv(path, truth: np.ndarray, pred: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"true,predicted\n")
        fh.write(b"\n".join(map(b",".join, zip(truth.tolist(), pred.tolist()))))
        fh.write(b"\n")
