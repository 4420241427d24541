"""Tests for farthest and nearest-neighbour search under both noise models."""

import numpy as np
import pytest

from repro.exceptions import EmptyInputError
from repro.neighbors import (
    exact_farthest,
    exact_nearest,
    farthest_adversarial,
    farthest_probabilistic,
    farthest_samp,
    farthest_tour2,
    nearest_adversarial,
    nearest_probabilistic,
    nearest_samp,
    nearest_tour2,
)
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    ProbabilisticNoise,
    QueryCounter,
)


class TestExactBaselines:
    def test_exact_farthest_and_nearest(self, small_points):
        far = exact_farthest(small_points, 0)
        near = exact_nearest(small_points, 0)
        assert small_points.distance(0, far) == max(
            small_points.distance(0, j) for j in range(1, 15)
        )
        assert small_points.distance(0, near) == min(
            small_points.distance(0, j) for j in range(1, 15)
        )

    def test_exact_with_candidates(self, small_points):
        far = exact_farthest(small_points, 0, candidates=[1, 2, 3])
        assert far in (1, 2, 3)


class TestAdversarialNeighbors:
    def test_noise_free_oracle_finds_optimum(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        far = farthest_adversarial(oracle, query=0, seed=0)
        near = nearest_adversarial(oracle, query=0, seed=0)
        assert far == exact_farthest(blob_space, 0)
        assert near == exact_nearest(blob_space, 0)

    def test_adversarial_noise_within_guarantee(self, blob_space):
        mu = 0.5
        failures = 0
        for trial in range(6):
            oracle = DistanceQuadrupletOracle(
                blob_space, noise=AdversarialNoise(mu=mu)
            )
            far = farthest_adversarial(oracle, query=0, delta=0.05, seed=trial)
            optimum = blob_space.distance(0, exact_farthest(blob_space, 0))
            if blob_space.distance(0, far) < optimum / (1 + mu) ** 3 - 1e-9:
                failures += 1
        assert failures <= 1

    def test_nearest_adversarial_guarantee(self, blob_space):
        mu = 0.5
        oracle = DistanceQuadrupletOracle(blob_space, noise=AdversarialNoise(mu=mu))
        near = nearest_adversarial(oracle, query=0, delta=0.05, seed=0)
        optimum = blob_space.distance(0, exact_nearest(blob_space, 0))
        assert blob_space.distance(0, near) <= optimum * (1 + mu) ** 3 + 1e-9

    def test_query_excluded_from_results(self, exact_quadruplet_oracle):
        far = farthest_adversarial(exact_quadruplet_oracle, query=3, seed=0)
        assert far != 3

    def test_candidates_respected(self, exact_quadruplet_oracle, small_points):
        far = farthest_adversarial(
            exact_quadruplet_oracle, query=0, candidates=[1, 2, 3], seed=0
        )
        assert far in (1, 2, 3)

    def test_no_candidates_raises(self, exact_quadruplet_oracle):
        with pytest.raises(EmptyInputError):
            farthest_adversarial(exact_quadruplet_oracle, query=0, candidates=[0])


class TestProbabilisticNeighbors:
    def test_noise_free_probabilistic_path(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        far = farthest_probabilistic(oracle, query=0, space=blob_space, seed=0)
        assert blob_space.distance(0, far) >= 0.9 * blob_space.distance(
            0, exact_farthest(blob_space, 0)
        )

    def test_probabilistic_noise_quality(self, blob_space):
        """Theorem 3.10 shape: the returned point is close to the optimum despite p = 0.2."""
        oracle = DistanceQuadrupletOracle(
            blob_space, noise=ProbabilisticNoise(p=0.2, seed=0)
        )
        far = farthest_probabilistic(oracle, query=0, space=blob_space, seed=0)
        optimum = blob_space.distance(0, exact_farthest(blob_space, 0))
        assert blob_space.distance(0, far) >= 0.5 * optimum

    def test_nearest_probabilistic_quality(self, blob_space):
        oracle = DistanceQuadrupletOracle(
            blob_space, noise=ProbabilisticNoise(p=0.2, seed=1)
        )
        near = nearest_probabilistic(oracle, query=0, space=blob_space, seed=0)
        dists = blob_space.distances_from(0, [i for i in range(len(blob_space)) if i != 0])
        # Returned point should be among the closer half of the candidates.
        assert blob_space.distance(0, near) <= np.median(dists)

    def test_explicit_anchor_set_used(self, small_points):
        oracle = DistanceQuadrupletOracle(
            small_points, noise=ProbabilisticNoise(p=0.2, seed=0)
        )
        far = farthest_probabilistic(oracle, query=0, anchors=[1, 2, 3], seed=0)
        assert far != 0

    def test_missing_anchor_and_space_rejected(self, small_points):
        class HiddenSpaceOracle(DistanceQuadrupletOracle):
            """Oracle that does not advertise its ground-truth space."""

            space = property(lambda self: None)

            def __init__(self, space):
                super().__init__(space)
                self._hidden = space

            def __len__(self):
                return len(self._hidden)

            def compare(self, a, b, c, d):  # pragma: no cover - not reached
                return True

        oracle = HiddenSpaceOracle.__new__(HiddenSpaceOracle)
        oracle._hidden = small_points
        with pytest.raises(EmptyInputError):
            farthest_probabilistic(oracle, query=0)
        with pytest.raises(EmptyInputError):
            nearest_probabilistic(oracle, query=0)


class TestBaselineNeighbors:
    def test_tour2_exact_finds_optimum(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        assert farthest_tour2(oracle, query=0, seed=0) == exact_farthest(blob_space, 0)
        assert nearest_tour2(oracle, query=0, seed=0) == exact_nearest(blob_space, 0)

    def test_samp_returns_valid_candidate(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        far = farthest_samp(oracle, query=0, seed=0)
        near = nearest_samp(oracle, query=0, seed=0)
        assert far != 0 and near != 0

    def test_samp_uses_fewer_queries_than_full_count_max(self, blob_space):
        counter = QueryCounter()
        oracle = DistanceQuadrupletOracle(blob_space, counter=counter, cache_answers=False)
        farthest_samp(oracle, query=0, seed=0)
        n = len(blob_space) - 1
        assert counter.total_queries < n * (n - 1) // 4

    def test_samp_respects_sample_size(self, blob_space):
        counter = QueryCounter()
        oracle = DistanceQuadrupletOracle(blob_space, counter=counter, cache_answers=False)
        farthest_samp(oracle, query=0, sample_size=4, seed=0)
        assert counter.total_queries == 6  # C(4, 2) comparisons
