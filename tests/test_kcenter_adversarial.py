"""Tests for k-center clustering under adversarial noise (Algorithm 6)."""

import pytest

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.kcenter import greedy_kcenter_exact, kcenter_adversarial, kcenter_objective
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    QueryCounter,
)


def _oracle(space, mu=0.0):
    noise = ExactNoise() if mu == 0.0 else AdversarialNoise(mu=mu)
    return DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())


def test_returns_k_distinct_centers_and_full_assignment(blob_space):
    oracle = _oracle(blob_space)
    result = kcenter_adversarial(oracle, k=4, seed=0)
    assert len(set(result.centers)) == 4
    assert set(result.assignment) == set(range(len(blob_space)))
    assert all(result.assignment[c] == c for c in result.centers)


def test_noise_free_matches_exact_greedy_objective(blob_space):
    oracle = _oracle(blob_space)
    noisy = kcenter_adversarial(oracle, k=4, first_center=0, seed=0)
    exact = greedy_kcenter_exact(blob_space, k=4, first_center=0)
    assert kcenter_objective(blob_space, noisy) <= 1.5 * kcenter_objective(
        blob_space, exact
    ) + 1e-9


def test_recovers_well_separated_blobs_under_noise(small_points):
    oracle = _oracle(small_points, mu=0.3)
    result = kcenter_adversarial(oracle, k=3, seed=1)
    # Three blobs are 10 apart with radius < 1, so a good clustering has a
    # small objective even under noise.
    assert kcenter_objective(small_points, result) < 5.0


def test_approximation_vs_exact_under_noise(blob_space):
    mu = 0.2
    oracle = _oracle(blob_space, mu=mu)
    noisy = kcenter_adversarial(oracle, k=4, first_center=0, delta=0.1, seed=2)
    exact = greedy_kcenter_exact(blob_space, k=4, first_center=0)
    ratio = kcenter_objective(blob_space, noisy) / kcenter_objective(blob_space, exact)
    # Theorem 4.2 shape: a small constant-factor degradation for small mu.
    # (The theorem compares against OPT; exact greedy is itself a 2-approx,
    # so a generous constant bound is used here.)
    assert ratio < 6.0


def test_query_count_recorded(blob_space):
    oracle = _oracle(blob_space, mu=0.5)
    result = kcenter_adversarial(oracle, k=3, seed=0)
    assert result.n_queries > 0
    assert result.n_queries <= oracle.counter.charged_queries


def test_query_complexity_better_than_all_pairs(blob_space):
    n = len(blob_space)
    oracle = _oracle(blob_space, mu=0.5)
    result = kcenter_adversarial(oracle, k=3, farthest_iterations=1, seed=0)
    # Theorem 4.2: O(nk^2 + nk log^2 k) charged queries, far below n^2 * k.
    assert result.n_queries < n * n

def test_k_one_assigns_everything_to_first_center(blob_space):
    oracle = _oracle(blob_space)
    result = kcenter_adversarial(oracle, k=1, first_center=5, seed=0)
    assert result.centers == [5]
    assert all(c == 5 for c in result.assignment.values())


def test_first_center_respected(blob_space):
    oracle = _oracle(blob_space)
    result = kcenter_adversarial(oracle, k=3, first_center=11, seed=0)
    assert result.centers[0] == 11


def test_first_center_validation(blob_space):
    oracle = _oracle(blob_space)
    with pytest.raises(InvalidParameterError):
        kcenter_adversarial(oracle, k=2, points=[0, 1, 2], first_center=9)


def test_points_subset_only_clustered(blob_space):
    oracle = _oracle(blob_space)
    subset = list(range(20))
    result = kcenter_adversarial(oracle, k=3, points=subset, seed=0)
    assert set(result.assignment) == set(subset)


def test_invalid_k(blob_space):
    oracle = _oracle(blob_space)
    with pytest.raises(InvalidParameterError):
        kcenter_adversarial(oracle, k=0)
    with pytest.raises(InvalidParameterError):
        kcenter_adversarial(oracle, k=len(blob_space) + 1)


def test_empty_points_rejected(blob_space):
    oracle = _oracle(blob_space)
    with pytest.raises(EmptyInputError):
        kcenter_adversarial(oracle, k=1, points=[])


def test_meta_records_parameters(blob_space):
    oracle = _oracle(blob_space, mu=1.0)
    result = kcenter_adversarial(oracle, k=2, delta=0.2, seed=0)
    assert result.meta["noise_model"] == "adversarial"
    assert result.meta["delta"] == 0.2


def test_reproducible_with_seed(blob_space):
    a = kcenter_adversarial(_oracle(blob_space, mu=0.5), k=3, seed=42)
    b = kcenter_adversarial(_oracle(blob_space, mu=0.5), k=3, seed=42)
    assert a.centers == b.centers
    assert a.assignment == b.assignment
