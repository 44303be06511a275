"""Shared random-input generators for the test suite.

Everything takes an explicit numpy Generator so each test file controls
its own seed and stays reproducible in isolation.
"""

import numpy as np

from gofmetrics import ConfusionMatrix


def random_counts(rng, n, high=50):
    """Random integer grid, any zero pattern, never all-zero."""
    while True:
        grid = rng.integers(0, high, size=(n, n))
        if grid.sum() > 0:
            return grid.astype(float)


def random_positive_marginal_counts(rng, n, high=50):
    """Random integer grid where every row and column sum is positive."""
    while True:
        grid = rng.integers(0, high, size=(n, n))
        if (grid.sum(axis=0) > 0).all() and (grid.sum(axis=1) > 0).all():
            return grid.astype(float)


def random_counts_with_empty_classes(rng, n, high=50):
    """Random integer grid in which some rows and columns may be all zero."""
    while True:
        grid = rng.integers(0, high, size=(n, n)).astype(float)
        grid[rng.random(n) < 0.2, :] = 0.0
        grid[:, rng.random(n) < 0.2] = 0.0
        if grid.sum() > 0:
            return grid


def strongly_diagonal_counts(rng, n):
    """A good classifier's table: 20 on the diagonal, 0-4 elsewhere."""
    counts = rng.integers(0, 5, size=(n, n)).astype(float)
    np.fill_diagonal(counts, 20.0)
    return counts


def pair_mean_tables(seed):
    """Tables whose rates exercise the element-wise pair means: random ones of
    2 to 40 classes, some empty, and two past the double range, a rate whose
    reciprocal overflows (a harmonic mean of 2e-310) and two rates whose
    product underflows (a geometric mean of 1e-200)."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4, 7, 12, 25, 40):
        for _ in range(3):
            yield ConfusionMatrix.from_counts(random_counts_with_empty_classes(rng, n))
    for grid in ([[1e-310, 1], [0, 1]], [[1e-200, 1], [1, 1]]):
        yield ConfusionMatrix.from_counts(grid)


def random_permutation_counts(rng, n, high=50):
    """Counts concentrated on one random permutation: a perfect fit up to relabeling."""
    grid = np.zeros((n, n))
    perm = rng.permutation(n)
    for j, i in enumerate(perm):
        grid[i, j] = float(rng.integers(1, high))
    return grid


def random_matrix(rng, n, high=50):
    return ConfusionMatrix.from_counts(random_counts(rng, n, high))
