"""End-to-end integration tests combining datasets, oracles, algorithms and evaluation."""

import numpy as np
import pytest

from repro import datasets, evaluation, hierarchical, kcenter, neighbors, oracles
from repro.baselines import kcenter_samp, kcenter_tour2


class TestDataSummarizationPipeline:
    """The paper's motivating use case: summarise a dataset with k-center under a crowd oracle."""

    def test_adversarial_pipeline_recovers_ground_truth_clusters(self):
        space = datasets.make_taxonomy_space(
            90, n_categories=6, within_std=0.2, level_scale=4.0, seed=0
        )
        counter = oracles.QueryCounter()
        oracle = oracles.DistanceQuadrupletOracle(
            space, noise=oracles.AdversarialNoise(mu=0.4), counter=counter
        )
        k = len(set(space.labels.tolist()))
        result = kcenter.kcenter_adversarial(oracle, k=k, seed=0)
        fscore = evaluation.pairwise_fscore(result.labels(len(space)), space.labels)
        assert fscore > 0.6
        assert counter.charged_queries == result.n_queries

    def test_probabilistic_pipeline_produces_reasonable_objective(self):
        space = datasets.load_dataset("amazon", n_points=80, seed=1)
        oracle = oracles.DistanceQuadrupletOracle(
            space, noise=oracles.ProbabilisticNoise(p=0.15, seed=1)
        )
        result = kcenter.kcenter_probabilistic(
            oracle, k=5, min_cluster_size=6, seed=1
        )
        exact = kcenter.greedy_kcenter_exact(space, k=5, first_center=result.centers[0])
        ratio = kcenter.kcenter_objective(space, result) / kcenter.kcenter_objective(
            space, exact
        )
        assert ratio < 10.0

    def test_ours_beats_baselines_under_heavy_probabilistic_noise(self):
        space = datasets.make_blobs_space(
            80, 4, cluster_std=0.3, center_spread=30.0, seed=5
        )
        p = 0.3

        def fresh_oracle(seed):
            return oracles.DistanceQuadrupletOracle(
                space, noise=oracles.ProbabilisticNoise(p=p, seed=seed)
            )

        ours = kcenter.kcenter_probabilistic(
            fresh_oracle(0), k=4, min_cluster_size=10, first_center=0, seed=0
        )
        tour2 = kcenter_tour2(fresh_oracle(0), k=4, first_center=0, seed=0)
        samp = kcenter_samp(fresh_oracle(0), k=4, first_center=0, seed=0)
        obj_ours = kcenter.kcenter_objective(space, ours)
        obj_baselines = min(
            kcenter.kcenter_objective(space, tour2),
            kcenter.kcenter_objective(space, samp),
        )
        # Our algorithm should not be substantially worse than the best
        # baseline; typically it is strictly better, but noise is random.
        assert obj_ours <= 1.5 * obj_baselines


class TestNeighborPipeline:
    def test_farthest_and_nearest_consistent_with_ground_truth(self):
        space = datasets.load_dataset("cities", n_points=150, seed=2)
        oracle = oracles.DistanceQuadrupletOracle(
            space, noise=oracles.AdversarialNoise(mu=0.5)
        )
        query = 10
        far = neighbors.farthest_adversarial(oracle, query, seed=0)
        near = neighbors.nearest_adversarial(oracle, query, seed=0)
        assert space.distance(query, far) > space.distance(query, near)

    def test_query_budget_enforced_end_to_end(self):
        space = datasets.make_uniform_space(60, seed=0)
        counter = oracles.QueryCounter(budget=200)
        oracle = oracles.DistanceQuadrupletOracle(space, counter=counter)
        from repro.exceptions import QueryBudgetExceededError

        with pytest.raises(QueryBudgetExceededError):
            kcenter.kcenter_adversarial(oracle, k=8, seed=0)


class TestHierarchicalPipeline:
    def test_dendrogram_cut_matches_planted_clusters(self):
        space = datasets.make_blobs_space(
            30, 3, cluster_std=0.2, center_spread=25.0, seed=7
        )
        oracle = oracles.DistanceQuadrupletOracle(
            space, noise=oracles.AdversarialNoise(mu=0.3)
        )
        den = hierarchical.noisy_linkage(oracle, space=space, seed=0)
        labels = den.cut(3)
        fscore = evaluation.pairwise_fscore(labels, space.labels)
        assert fscore > 0.8

    def test_single_and_complete_linkage_agree_on_well_separated_data(self):
        space = datasets.make_blobs_space(
            24, 3, cluster_std=0.1, center_spread=50.0, seed=9
        )
        oracle = oracles.DistanceQuadrupletOracle(space)
        single = hierarchical.noisy_linkage(oracle, linkage="single", seed=0)
        complete = hierarchical.noisy_linkage(oracle, linkage="complete", seed=0)
        f_single = evaluation.pairwise_fscore(single.cut(3), space.labels)
        f_complete = evaluation.pairwise_fscore(complete.cut(3), space.labels)
        assert f_single > 0.9 and f_complete > 0.9


class TestCrowdOraclePipeline:
    def test_crowd_oracle_drives_all_algorithms(self):
        space = datasets.load_dataset("monuments", n_points=60, seed=3)
        max_d = float(np.max([np.max(space.distances_from(i)) for i in range(0, 60, 10)]))
        profile = oracles.BucketAccuracyProfile.adversarial_like(max_d)
        crowd = oracles.CrowdQuadrupletOracle(space, profile, n_workers=3, seed=3)

        far = neighbors.farthest_adversarial(crowd, query=0, seed=0)
        result = kcenter.kcenter_adversarial(crowd, k=5, seed=0)
        den = hierarchical.noisy_linkage(crowd, points=list(range(30)), seed=0)

        assert far != 0
        assert len(result.centers) == 5
        assert den.is_complete
        assert crowd.counter.total_queries > 0
