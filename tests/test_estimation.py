"""Tests for noise-parameter estimation (Section 6.1 pipeline)."""

import numpy as np
import pytest

from repro.estimation import estimate_mu, estimate_noise, estimate_p
from repro.estimation.noise_estimation import _bucket_of
from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    ProbabilisticNoise,
)


def test_bucket_of_ratio():
    edges = (1.0, 1.5, 2.0)
    assert _bucket_of(1.0, edges) == 0
    assert _bucket_of(1.6, edges) == 1
    assert _bucket_of(5.0, edges) == 2
    with pytest.raises(InvalidParameterError):
        _bucket_of(0.5, edges)


def test_exact_oracle_detected(blob_space):
    oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
    estimate = estimate_noise(oracle, blob_space, n_queries=300, seed=0)
    assert estimate.model == "exact"
    assert estimate.mu == 0.0 and estimate.p == 0.0
    assert estimate.n_queries > 0


def test_adversarial_oracle_detected_with_reasonable_mu(blob_space):
    true_mu = 0.5
    oracle = DistanceQuadrupletOracle(
        blob_space, noise=AdversarialNoise(mu=true_mu)
    )
    estimate = estimate_noise(oracle, blob_space, n_queries=800, seed=1)
    assert estimate.model == "adversarial"
    # The estimated cutoff should bracket the true (1 + mu) within one bucket.
    assert 0.1 <= estimate.mu <= 1.2
    assert estimate.p == 0.0


def test_probabilistic_oracle_detected_with_reasonable_p(blob_space):
    true_p = 0.25
    oracle = DistanceQuadrupletOracle(
        blob_space, noise=ProbabilisticNoise(p=true_p, seed=0)
    )
    estimate = estimate_noise(oracle, blob_space, n_queries=800, seed=2)
    assert estimate.model == "probabilistic"
    assert abs(estimate.p - true_p) < 0.1
    assert estimate.mu == 0.0


def test_estimate_mu_and_p_wrappers(blob_space):
    adversarial = DistanceQuadrupletOracle(
        blob_space, noise=AdversarialNoise(mu=0.4)
    )
    probabilistic = DistanceQuadrupletOracle(
        blob_space, noise=ProbabilisticNoise(p=0.2, seed=0)
    )
    assert estimate_mu(adversarial, blob_space, n_queries=600, seed=0) > 0.0
    assert estimate_p(adversarial, blob_space, n_queries=600, seed=0) == 0.0
    assert estimate_p(probabilistic, blob_space, n_queries=600, seed=0) > 0.05
    assert estimate_mu(probabilistic, blob_space, n_queries=600, seed=0) == 0.0


def test_accuracy_curve_shape_for_adversarial(blob_space):
    oracle = DistanceQuadrupletOracle(
        blob_space, noise=AdversarialNoise(mu=0.5)
    )
    estimate = estimate_noise(oracle, blob_space, n_queries=800, seed=3)
    accs = np.asarray(estimate.accuracies)
    counts = np.asarray(estimate.counts)
    measured = ~np.isnan(accs) & (counts > 5)
    edges = np.asarray(estimate.ratio_edges)
    low_ratio = measured & (edges < 1.4)
    high_ratio = measured & (edges >= 2.0)
    if low_ratio.any() and high_ratio.any():
        assert accs[high_ratio].mean() > accs[low_ratio].mean()


def test_validation_subset_used(blob_space):
    oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
    estimate = estimate_noise(
        oracle, blob_space, validation=list(range(10)), n_queries=100, seed=0
    )
    assert estimate.n_queries > 0


def test_accuracy_at_ratio_lookup(blob_space):
    oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
    estimate = estimate_noise(oracle, blob_space, n_queries=200, seed=0)
    value = estimate.accuracy_at_ratio(3.0)
    assert np.isnan(value) or 0.0 <= value <= 1.0


def test_parameter_validation(blob_space):
    oracle = DistanceQuadrupletOracle(blob_space)
    with pytest.raises(InvalidParameterError):
        estimate_noise(oracle, blob_space, n_queries=0)
    with pytest.raises(InvalidParameterError):
        estimate_noise(oracle, blob_space, ratio_edges=(1.0,))
    with pytest.raises(EmptyInputError):
        estimate_noise(oracle, blob_space, validation=[0, 1, 2])
