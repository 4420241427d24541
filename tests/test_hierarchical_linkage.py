"""Tests for exact and noisy agglomerative clustering (Algorithm 11)."""

import numpy as np
import pytest

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.evaluation.merges import average_merge_distance, merge_distance_ratios
from repro.hierarchical import exact_linkage, noisy_linkage
from repro.metric.space import PointCloudSpace
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    ProbabilisticNoise,
    QueryCounter,
)


def _line_space():
    # Points on a line: two tight groups (0, 1, 2) and (10, 11), plus an outlier at 30.
    return PointCloudSpace(np.array([0.0, 1.0, 2.0, 10.0, 11.0, 30.0]).reshape(-1, 1))


class TestExactLinkage:
    def test_single_linkage_merges_closest_first(self):
        space = _line_space()
        den = exact_linkage(space, linkage="single")
        assert den.is_complete
        first_left, first_right = den.merges[0].left, den.merges[0].right
        assert {first_left, first_right} in ({0, 1}, {1, 2}, {3, 4})

    def test_single_linkage_cut_recovers_groups(self):
        space = _line_space()
        den = exact_linkage(space, linkage="single")
        labels = den.cut(3)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[5] not in (labels[0], labels[3])

    def test_merge_distances_nondecreasing_single_linkage(self, blob_space):
        den = exact_linkage(blob_space, linkage="single", points=list(range(25)))
        distances = den.true_merge_distances()
        assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))

    def test_complete_linkage_differs_from_single(self):
        space = _line_space()
        single = exact_linkage(space, linkage="single")
        complete = exact_linkage(space, linkage="complete")
        assert single.true_merge_distances() != complete.true_merge_distances()

    def test_complete_linkage_distance_is_max_pairwise(self):
        space = _line_space()
        den = exact_linkage(space, linkage="complete")
        members = den.members()
        for step in den.merges:
            expected = max(
                space.distance(u, v)
                for u in members[step.left]
                for v in members[step.right]
            )
            assert step.true_distance == pytest.approx(expected)

    def test_n_merges_limits_construction(self):
        den = exact_linkage(_line_space(), n_merges=2)
        assert den.n_merges == 2
        assert not den.is_complete

    def test_invalid_linkage_and_merges(self):
        with pytest.raises(InvalidParameterError):
            exact_linkage(_line_space(), linkage="average")
        with pytest.raises(InvalidParameterError):
            exact_linkage(_line_space(), n_merges=99)
        with pytest.raises(EmptyInputError):
            exact_linkage(_line_space(), points=[])

    def test_single_point(self):
        den = exact_linkage(PointCloudSpace([[0.0]]))
        assert den.n_merges == 0 and den.is_complete


class TestNoisyLinkage:
    def test_noise_free_matches_exact_merge_quality(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space, noise=ExactNoise())
        noisy = noisy_linkage(oracle, space=space, seed=0)
        exact = exact_linkage(space)
        assert noisy.is_complete
        ratios = merge_distance_ratios(noisy, exact, space=space)
        assert np.all(ratios <= 1.5 + 1e-9)

    def test_dendrogram_covers_all_leaves(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        points = list(range(20))
        den = noisy_linkage(oracle, points=points, seed=0)
        assert den.is_complete
        assert sorted(den.members()[den.merges[-1].merged]) == points

    def test_adversarial_noise_merge_quality(self):
        """Theorem 5.2 shape: merges stay within a constant factor of optimal."""
        space = _line_space()
        mu = 0.3
        oracle = DistanceQuadrupletOracle(space, noise=AdversarialNoise(mu=mu))
        noisy = noisy_linkage(oracle, space=space, seed=0)
        exact = exact_linkage(space)
        avg_noisy = average_merge_distance(noisy, space)
        avg_exact = average_merge_distance(exact, space)
        assert avg_noisy <= 3.0 * avg_exact + 1e-9

    def test_complete_linkage_supported(self, blob_space):
        oracle = DistanceQuadrupletOracle(blob_space, noise=ExactNoise())
        den = noisy_linkage(oracle, linkage="complete", points=list(range(15)), seed=0)
        assert den.is_complete

    def test_true_distance_recorded_when_space_given(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space, noise=ExactNoise())
        den = noisy_linkage(oracle, space=space, seed=0)
        assert all(d is not None for d in den.true_merge_distances())

    def test_true_distance_absent_without_space(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space, noise=ExactNoise())
        den = noisy_linkage(oracle, seed=0)
        assert all(d is None for d in den.true_merge_distances())

    def test_n_merges_partial_hierarchy(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space, noise=ExactNoise())
        den = noisy_linkage(oracle, n_merges=3, seed=0)
        assert den.n_merges == 3

    def test_methods_tour2_and_samp(self):
        space = _line_space()
        for method in ("tour2", "samp"):
            oracle = DistanceQuadrupletOracle(space, noise=ExactNoise())
            den = noisy_linkage(oracle, method=method, space=space, seed=0)
            assert den.is_complete

    def test_invalid_method_and_linkage(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space)
        with pytest.raises(InvalidParameterError):
            noisy_linkage(oracle, method="magic")
        with pytest.raises(InvalidParameterError):
            noisy_linkage(oracle, linkage="average")
        with pytest.raises(EmptyInputError):
            noisy_linkage(oracle, points=[])

    def test_query_complexity_quadratic_not_cubic(self, blob_space):
        points = list(range(24))
        counter = QueryCounter()
        oracle = DistanceQuadrupletOracle(blob_space, counter=counter, cache_answers=False)
        noisy_linkage(oracle, points=points, seed=0)
        n = len(points)
        # Algorithm 11 uses O(n^2 log^2 n) queries; the cubic naive bound is
        # n^3 / something much larger.  Use a generous constant to stay robust.
        assert counter.total_queries < 40 * n * n

    def test_probabilistic_noise_still_builds_full_hierarchy(self):
        space = _line_space()
        oracle = DistanceQuadrupletOracle(space, noise=ProbabilisticNoise(p=0.2, seed=0))
        den = noisy_linkage(oracle, space=space, seed=0)
        assert den.is_complete
