"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_blobs_space
from repro.metric.space import DistanceMatrixSpace, PointCloudSpace, ValueSpace
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    ProbabilisticNoise,
    QueryCounter,
    ValueComparisonOracle,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_values():
    """Ten distinct scalar values with a clear maximum at index 3."""
    return np.array([5.0, 12.0, 7.5, 100.0, 1.0, 42.0, 3.3, 58.0, 23.0, 61.0])


@pytest.fixture
def value_space(small_values):
    return ValueSpace(small_values)


@pytest.fixture
def exact_value_oracle(small_values):
    return ValueComparisonOracle(small_values, noise=ExactNoise())


@pytest.fixture
def small_points():
    """A 2-D point cloud with three well-separated blobs of 5 points each."""
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([c + rng.normal(0, 0.3, size=(5, 2)) for c in centers])
    labels = np.repeat([0, 1, 2], 5)
    return PointCloudSpace(points, labels=labels)


@pytest.fixture
def blob_space():
    """A larger blob dataset (60 points, 4 clusters) for clustering tests."""
    return make_blobs_space(60, 4, dimension=2, cluster_std=0.4, center_spread=20.0, seed=3)


@pytest.fixture
def exact_quadruplet_oracle(small_points):
    return DistanceQuadrupletOracle(small_points, noise=ExactNoise(), counter=QueryCounter())


@pytest.fixture
def adversarial_quadruplet_oracle(small_points):
    return DistanceQuadrupletOracle(
        small_points, noise=AdversarialNoise(mu=0.5, seed=0), counter=QueryCounter()
    )


@pytest.fixture
def probabilistic_quadruplet_oracle(small_points):
    return DistanceQuadrupletOracle(
        small_points, noise=ProbabilisticNoise(p=0.2, seed=0), counter=QueryCounter()
    )


@pytest.fixture
def line_matrix_space():
    """Five points on a line (0, 1, 3, 6, 10) as an explicit distance matrix."""
    coords = np.array([0.0, 1.0, 3.0, 6.0, 10.0])
    matrix = np.abs(coords[:, None] - coords[None, :])
    return DistanceMatrixSpace(matrix)


@pytest.fixture
def duplicate_heavy_pairs():
    """Factory of pair batches with few distinct pairs, as one Count-Max round sends.

    ``make(n)`` returns ``(i, j)``: 30 random pairs, each repeated 40 times
    in both orientations, plus 30 ``i == j`` pairs repeated as often, in a
    shuffled order.
    """

    def make(n, seed=4):
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, n, size=(2, 30))
        i = np.tile(np.concatenate([a, b, a]), 40)
        j = np.tile(np.concatenate([b, a, a]), 40)
        order = rng.permutation(len(i))
        return i[order], j[order]

    return make
