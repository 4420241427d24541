"""Tests for the quadruplet oracle and the same-cluster (Oq) oracle."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ProbabilisticNoise,
    QueryCounter,
    SameClusterOracle,
)


class TestDistanceQuadrupletOracle:
    def test_exact_answers_match_distances(self, exact_quadruplet_oracle, small_points):
        oracle = exact_quadruplet_oracle
        for _ in range(30):
            rng = np.random.default_rng(_)
            a, b, c, d = rng.integers(0, len(small_points), size=4)
            if {int(a), int(b)} == {int(c), int(d)}:
                continue
            expected = small_points.distance(int(a), int(b)) <= small_points.distance(
                int(c), int(d)
            )
            assert oracle.compare(int(a), int(b), int(c), int(d)) == expected

    def test_identical_pairs_answer_yes_for_free(self, exact_quadruplet_oracle):
        counter = exact_quadruplet_oracle.counter
        before = counter.total_queries
        assert exact_quadruplet_oracle.compare(1, 2, 2, 1) is True
        assert counter.total_queries == before

    def test_reverse_orientation_consistent(self, probabilistic_quadruplet_oracle):
        oracle = probabilistic_quadruplet_oracle
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b, c, d = (int(x) for x in rng.integers(0, 15, size=4))
            if {a, b} == {c, d}:
                continue
            assert oracle.compare(a, b, c, d) == (not oracle.compare(c, d, a, b))

    def test_pair_order_does_not_matter(self, probabilistic_quadruplet_oracle):
        oracle = probabilistic_quadruplet_oracle
        assert oracle.compare(0, 5, 7, 9) == oracle.compare(5, 0, 9, 7)

    def test_persistent_answers(self, probabilistic_quadruplet_oracle):
        first = probabilistic_quadruplet_oracle.compare(0, 5, 7, 9)
        assert all(
            probabilistic_quadruplet_oracle.compare(0, 5, 7, 9) == first for _ in range(10)
        )

    def test_repeats_are_cached_not_charged(self, small_points):
        counter = QueryCounter()
        oracle = DistanceQuadrupletOracle(small_points, counter=counter)
        oracle.compare(0, 1, 2, 3)
        oracle.compare(0, 1, 2, 3)
        oracle.compare(2, 3, 0, 1)
        assert counter.total_queries == 3
        assert counter.charged_queries == 1

    def test_adversarial_answers_correct_outside_band(self, small_points):
        oracle = DistanceQuadrupletOracle(small_points, noise=AdversarialNoise(mu=0.3))
        # Within-blob distance (tiny) vs cross-blob distance (about 10).
        within = (0, 1)
        across = (0, 5)
        assert oracle.compare(within[0], within[1], across[0], across[1]) is True
        assert oracle.compare(across[0], across[1], within[0], within[1]) is False

    def test_out_of_range_rejected(self, exact_quadruplet_oracle):
        with pytest.raises(InvalidParameterError):
            exact_quadruplet_oracle.compare(0, 1, 2, 999)

    def test_true_compare_ignores_noise(self, small_points):
        oracle = DistanceQuadrupletOracle(
            small_points, noise=ProbabilisticNoise(p=0.49, seed=0)
        )
        assert oracle.true_compare(0, 1, 0, 5) is True

    def test_len_matches_space(self, exact_quadruplet_oracle, small_points):
        assert len(exact_quadruplet_oracle) == len(small_points)


class TestSameClusterOracle:
    def test_perfect_oracle_recovers_labels(self):
        labels = [0, 0, 1, 1, 2]
        oracle = SameClusterOracle(labels, false_negative_rate=0.0, false_positive_rate=0.0)
        assert oracle.same_cluster(0, 1) is True
        assert oracle.same_cluster(0, 2) is False
        assert oracle.same_cluster(3, 3) is True

    def test_answers_persistent(self):
        oracle = SameClusterOracle(
            [0] * 10, false_negative_rate=0.5, false_positive_rate=0.0, seed=0
        )
        first = oracle.same_cluster(0, 1)
        assert all(oracle.same_cluster(0, 1) == first for _ in range(10))
        assert oracle.same_cluster(1, 0) == first

    def test_false_negative_rate_observed(self):
        oracle = SameClusterOracle(
            [0] * 400, false_negative_rate=0.5, false_positive_rate=0.0, seed=1
        )
        answers = [oracle.same_cluster(2 * i, 2 * i + 1) for i in range(200)]
        no_rate = 1.0 - np.mean(answers)
        assert 0.35 < no_rate < 0.65

    def test_queries_counted(self):
        counter = QueryCounter()
        oracle = SameClusterOracle([0, 1], counter=counter, seed=0)
        oracle.same_cluster(0, 1)
        assert counter.total_queries == 1

    def test_invalid_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            SameClusterOracle([0, 1], false_negative_rate=1.5)
        with pytest.raises(InvalidParameterError):
            SameClusterOracle([0, 1], false_positive_rate=-0.1)
