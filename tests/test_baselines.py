"""Tests for the Tour2, Samp and Oq baselines."""

import numpy as np
import pytest

from repro.baselines import (
    hierarchical_samp,
    hierarchical_tour2,
    kcenter_samp,
    kcenter_tour2,
    oq_clustering,
)
from repro.baselines.optimal_cluster_query import oq_clustering_sampled_per_point
from repro.evaluation.fscore import pairwise_fscore
from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.kcenter import greedy_kcenter_exact, kcenter_objective
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ExactNoise,
    QueryCounter,
    SameClusterOracle,
)


def _oracle(space, noise=None):
    return DistanceQuadrupletOracle(
        space, noise=noise or ExactNoise(), counter=QueryCounter()
    )


class TestKCenterTour2:
    def test_structure_of_result(self, blob_space):
        result = kcenter_tour2(_oracle(blob_space), k=4, seed=0)
        assert len(set(result.centers)) == 4
        assert set(result.assignment) == set(range(len(blob_space)))
        assert result.meta["method"] == "tour2"
        assert result.n_queries > 0

    def test_noise_free_is_close_to_exact_greedy(self, blob_space):
        result = kcenter_tour2(_oracle(blob_space), k=4, first_center=0, seed=0)
        exact = greedy_kcenter_exact(blob_space, k=4, first_center=0)
        assert kcenter_objective(blob_space, result) <= 2.0 * kcenter_objective(
            blob_space, exact
        ) + 1e-9

    def test_first_center_validation(self, blob_space):
        with pytest.raises(InvalidParameterError):
            kcenter_tour2(_oracle(blob_space), k=2, points=[0, 1], first_center=5)

    def test_invalid_k_and_empty_points(self, blob_space):
        with pytest.raises(InvalidParameterError):
            kcenter_tour2(_oracle(blob_space), k=0)
        with pytest.raises(EmptyInputError):
            kcenter_tour2(_oracle(blob_space), k=1, points=[])


class TestKCenterSamp:
    def test_structure_of_result(self, blob_space):
        result = kcenter_samp(_oracle(blob_space), k=4, seed=0)
        assert len(set(result.centers)) == 4
        assert set(result.assignment) == set(range(len(blob_space)))
        assert result.meta["method"] == "samp"

    def test_sample_size_recorded_and_bounded(self, blob_space):
        result = kcenter_samp(_oracle(blob_space), k=3, sample_size=10, seed=0)
        assert result.meta["sample_size"] == 10

    def test_centers_come_from_sample(self, blob_space):
        result = kcenter_samp(_oracle(blob_space), k=5, sample_size=8, seed=1)
        assert len(result.centers) == 5

    def test_first_center_respected(self, blob_space):
        result = kcenter_samp(_oracle(blob_space), k=3, first_center=7, seed=0)
        assert result.centers[0] == 7

    def test_validation(self, blob_space):
        with pytest.raises(InvalidParameterError):
            kcenter_samp(_oracle(blob_space), k=0)
        with pytest.raises(EmptyInputError):
            kcenter_samp(_oracle(blob_space), k=1, points=[])
        with pytest.raises(InvalidParameterError):
            kcenter_samp(_oracle(blob_space), k=2, points=[0, 1], first_center=9)

    def test_worse_than_ours_on_skewed_data(self):
        """Samp's sample misses the unique outlier cluster that greedy needs."""
        from repro.datasets import make_cities
        from repro.kcenter import kcenter_adversarial

        space = make_cities(n_points=150, outlier_fraction=0.02, seed=0)
        noise = AdversarialNoise(mu=0.5)
        ours = kcenter_adversarial(
            DistanceQuadrupletOracle(space, noise=AdversarialNoise(mu=0.5)),
            k=4,
            first_center=0,
            seed=0,
        )
        samp = kcenter_samp(
            DistanceQuadrupletOracle(space, noise=AdversarialNoise(mu=0.5)),
            k=4,
            first_center=0,
            sample_size=8,
            seed=0,
        )
        assert kcenter_objective(space, ours) <= kcenter_objective(space, samp) * 1.5


class TestHierarchicalBaselines:
    def test_tour2_builds_complete_hierarchy(self, small_points):
        den = hierarchical_tour2(_oracle(small_points), space=small_points, seed=0)
        assert den.is_complete

    def test_samp_builds_complete_hierarchy(self, small_points):
        den = hierarchical_samp(_oracle(small_points), space=small_points, seed=0)
        assert den.is_complete

    def test_complete_linkage_variant(self, small_points):
        den = hierarchical_tour2(
            _oracle(small_points), linkage="complete", space=small_points, seed=0
        )
        assert den.is_complete


class TestOqClustering:
    def test_perfect_oracle_all_pairs_recovers_clusters(self):
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        oracle = SameClusterOracle(labels, false_negative_rate=0.0, false_positive_rate=0.0)
        predicted = oq_clustering(oracle)
        assert pairwise_fscore(predicted, labels) == pytest.approx(1.0)

    def test_low_recall_oracle_fragments_clusters(self):
        labels = np.zeros(30, dtype=int)
        oracle = SameClusterOracle(
            labels, false_negative_rate=0.9, false_positive_rate=0.0, seed=0
        )
        predicted = oq_clustering(oracle, max_queries=60, seed=0)
        # Missing most positive answers leaves many singleton components.
        assert len(set(predicted.tolist())) > 5
        assert pairwise_fscore(predicted, labels) < 0.8

    def test_query_budget_respected(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        counter = QueryCounter()
        oracle = SameClusterOracle(
            labels, false_negative_rate=0.0, false_positive_rate=0.0, counter=counter, seed=0
        )
        oq_clustering(oracle, max_queries=5, seed=0)
        assert counter.total_queries == 5

    def test_explicit_pairs(self):
        labels = np.array([0, 0, 1, 1])
        oracle = SameClusterOracle(labels, false_negative_rate=0.0, false_positive_rate=0.0)
        predicted = oq_clustering(oracle, pairs=[(0, 1), (2, 3)])
        assert predicted[0] == predicted[1]
        assert predicted[2] == predicted[3]
        assert predicted[0] != predicted[2]

    def test_pair_validation(self):
        oracle = SameClusterOracle([0, 1], false_negative_rate=0.0, false_positive_rate=0.0)
        with pytest.raises(InvalidParameterError):
            oq_clustering(oracle, pairs=[(0, 9)])
        with pytest.raises(EmptyInputError):
            oq_clustering(oracle, n_points=0)

    def test_sampled_per_point_variant(self):
        labels = np.repeat([0, 1, 2], 10)
        oracle = SameClusterOracle(
            labels, false_negative_rate=0.1, false_positive_rate=0.0, seed=1
        )
        predicted = oq_clustering_sampled_per_point(oracle, queries_per_point=5, seed=1)
        assert len(predicted) == 30
        assert pairwise_fscore(predicted, labels) > 0.3

    def test_sampled_per_point_validation(self):
        oracle = SameClusterOracle([0, 1], seed=0)
        with pytest.raises(InvalidParameterError):
            oq_clustering_sampled_per_point(oracle, queries_per_point=0)
