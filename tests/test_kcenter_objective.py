"""Tests for the k-center result container and objective evaluation."""

import numpy as np
import pytest

from repro.baselines import kcenter_samp, kcenter_tour2
from repro.exceptions import ClusteringError, InvalidParameterError
from repro.incremental.kcenter import IncrementalGreedyKCenter
from repro.incremental.view import MutableSpaceView
from repro.kcenter import greedy_kcenter_exact, kcenter_adversarial, kcenter_probabilistic
from repro.kcenter.objective import (
    ClusteringResult,
    kcenter_objective,
    kcenter_objective_for_centers,
)
from repro.oracles import DistanceQuadrupletOracle, ExactNoise, QueryCounter

#: Every public entry point that takes a cluster count, as ``run(space, k)``.
K_ENTRY_POINTS = {
    "greedy_kcenter_exact": lambda space, k: greedy_kcenter_exact(space, k=k, seed=0),
    "kcenter_adversarial": lambda space, k: kcenter_adversarial(_exact(space), k=k, seed=0),
    "kcenter_probabilistic": lambda space, k: kcenter_probabilistic(
        _exact(space), k=k, min_cluster_size=5, seed=0
    ),
    "kcenter_tour2": lambda space, k: kcenter_tour2(_exact(space), k=k, seed=0),
    "kcenter_samp": lambda space, k: kcenter_samp(_exact(space), k=k, seed=0),
    "IncrementalGreedyKCenter": lambda space, k: IncrementalGreedyKCenter(
        MutableSpaceView(space, live=range(len(space))), k=k
    ).result(),
}


def _exact(space):
    return DistanceQuadrupletOracle(space, noise=ExactNoise(), counter=QueryCounter())


def _simple_result():
    return ClusteringResult(
        centers=[0, 5],
        assignment={0: 0, 1: 0, 2: 0, 5: 5, 6: 5},
    )


def test_k_property():
    assert _simple_result().k == 2


def test_duplicate_centers_rejected():
    with pytest.raises(ClusteringError):
        ClusteringResult(centers=[0, 0], assignment={0: 0})


def test_assignment_to_non_center_rejected():
    with pytest.raises(ClusteringError):
        ClusteringResult(centers=[0], assignment={1: 2})


def test_cluster_members_sorted():
    members = _simple_result().cluster_members()
    assert members[0] == [0, 1, 2]
    assert members[5] == [5, 6]


def test_labels_are_center_indices():
    labels = _simple_result().labels(n_points=7)
    assert labels[0] == 0 and labels[2] == 0
    assert labels[5] == 1 and labels[6] == 1
    assert labels[3] == -1  # unassigned point


def test_labels_default_size():
    labels = _simple_result().labels()
    assert len(labels) == 7


def test_kcenter_objective_matches_manual(small_points):
    result = ClusteringResult(
        centers=[0, 5, 10],
        assignment={i: (0 if i < 5 else 5 if i < 10 else 10) for i in range(15)},
    )
    expected = max(
        small_points.distance(i, result.assignment[i]) for i in range(15)
    )
    assert kcenter_objective(small_points, result) == pytest.approx(expected)


def test_kcenter_objective_empty_assignment_rejected(small_points):
    result = ClusteringResult(centers=[0], assignment={})
    with pytest.raises(InvalidParameterError):
        kcenter_objective(small_points, result)


def test_objective_for_centers_best_assignment(small_points):
    # Using the true blob centers gives a small radius; a single center is much worse.
    good = kcenter_objective_for_centers(small_points, [0, 5, 10])
    bad = kcenter_objective_for_centers(small_points, [0])
    assert good < bad


def test_objective_for_centers_subset_of_points(small_points):
    value = kcenter_objective_for_centers(small_points, [0], points=[0, 1, 2])
    manual = max(small_points.distance(p, 0) for p in [0, 1, 2])
    assert value == pytest.approx(manual)


def test_objective_for_centers_requires_centers(small_points):
    with pytest.raises(InvalidParameterError):
        kcenter_objective_for_centers(small_points, [])


def test_meta_and_queries_default():
    result = _simple_result()
    assert result.n_queries == 0
    assert result.meta == {}


@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_k_must_be_a_positive_integer(entry, small_points):
    run = K_ENTRY_POINTS[entry]
    for bad in (1.5, 2.0, np.float64(2.0), True, "2", None, 0, -1):
        with pytest.raises(InvalidParameterError, match="k must be"):
            run(small_points, bad)
    # NumPy integers are integers: two centres, as for k=2.
    assert len(run(small_points, np.int64(2)).centers) == 2
    if entry != "IncrementalGreedyKCenter":  # the maintainer caps k at n_live
        with pytest.raises(InvalidParameterError, match="between 1 and 15"):
            run(small_points, len(small_points) + 1)
