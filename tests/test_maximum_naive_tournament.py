"""Tests for the naive scan and the tournament algorithms (Algorithms 2-3)."""

import numpy as np
import pytest

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.maximum.naive import naive_max, naive_min
from repro.maximum.tournament import tournament_max, tournament_min, tournament_partition
from repro.oracles import AdversarialNoise, ValueComparisonOracle


class TestNaive:
    def test_naive_max_exact(self, small_values, exact_value_oracle):
        assert naive_max(list(range(len(small_values))), exact_value_oracle) == 3

    def test_naive_min_exact(self, small_values, exact_value_oracle):
        assert naive_min(list(range(len(small_values))), exact_value_oracle) == 4

    def test_naive_uses_exactly_n_minus_1_queries(self, small_values):
        oracle = ValueComparisonOracle(small_values, cache_answers=False)
        naive_max(list(range(len(small_values))), oracle)
        assert oracle.counter.total_queries == len(small_values) - 1

    def test_naive_empty_rejected(self, exact_value_oracle):
        with pytest.raises(EmptyInputError):
            naive_max([], exact_value_oracle)

    def test_naive_failure_mode_under_adversarial_chain(self):
        """Section 3.1 negative example: a geometric chain makes the naive scan miss the maximum."""
        mu = 0.5
        values = [(1 + mu - 0.01) ** i for i in range(20)]
        oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu))
        winner = naive_max(list(range(20)), oracle)
        # The lying adversary blocks the final comparison (ratio within 1 + mu),
        # so the scan never reaches the true maximum at index 19.
        assert winner != 19
        assert values[winner] < max(values)


class TestTournament:
    def test_exact_tournament_returns_maximum(self, small_values, exact_value_oracle):
        for degree in (2, 3, 5):
            winner = tournament_max(
                list(range(len(small_values))), exact_value_oracle, degree=degree, seed=0
            )
            assert winner == 3

    def test_exact_tournament_min(self, small_values, exact_value_oracle):
        assert tournament_min(list(range(len(small_values))), exact_value_oracle, seed=0) == 4

    def test_single_item(self, exact_value_oracle):
        assert tournament_max([7], exact_value_oracle) == 7

    def test_degree_below_two_rejected(self, exact_value_oracle):
        with pytest.raises(InvalidParameterError):
            tournament_max([0, 1], exact_value_oracle, degree=1)

    def test_empty_rejected(self, exact_value_oracle):
        with pytest.raises(EmptyInputError):
            tournament_max([], exact_value_oracle)

    def test_binary_tournament_linear_queries(self):
        values = np.arange(64, dtype=float)
        oracle = ValueComparisonOracle(values, cache_answers=False)
        tournament_max(list(range(64)), oracle, degree=2, seed=0)
        # A binary knockout over n items uses exactly n - 1 comparisons.
        assert oracle.counter.total_queries == 63

    def test_seeded_runs_are_reproducible(self, small_values):
        oracle = ValueComparisonOracle(
            small_values, noise=AdversarialNoise(mu=1.0)
        )
        a = tournament_max(list(range(len(small_values))), oracle, seed=11)
        b = tournament_max(list(range(len(small_values))), oracle, seed=11)
        assert a == b

    def test_approximation_lemma_3_3(self):
        """Degree-lambda tournament loses at most (1+mu)^(2 log_lambda n)."""
        rng = np.random.default_rng(1)
        mu = 0.2
        values = rng.uniform(1.0, 50.0, size=27)
        oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu))
        winner = tournament_max(list(range(27)), oracle, degree=3, seed=0)
        levels = 3  # log_3 27
        assert values[winner] >= values.max() / (1 + mu) ** (2 * levels) - 1e-9


class TestTournamentPartition:
    def test_returns_one_winner_per_partition(self, small_values, exact_value_oracle):
        winners = tournament_partition(
            list(range(len(small_values))), exact_value_oracle, n_partitions=3, seed=0
        )
        assert len(winners) == 3
        assert len(set(winners)) == 3

    def test_partitions_cover_all_items_once(self, exact_value_oracle, small_values):
        # With n_partitions == n every item is its own partition and wins it.
        items = list(range(len(small_values)))
        winners = tournament_partition(
            items, exact_value_oracle, n_partitions=len(items), seed=0
        )
        assert sorted(winners) == items

    def test_exact_partition_contains_global_max(self, small_values, exact_value_oracle):
        winners = tournament_partition(
            list(range(len(small_values))), exact_value_oracle, n_partitions=3, seed=1
        )
        assert 3 in winners

    def test_n_partitions_clamped(self, exact_value_oracle, small_values):
        winners = tournament_partition(
            list(range(3)), exact_value_oracle, n_partitions=10, seed=0
        )
        assert len(winners) == 3

    def test_invalid_partitions_rejected(self, exact_value_oracle):
        with pytest.raises(InvalidParameterError):
            tournament_partition([0, 1], exact_value_oracle, n_partitions=0)

    def test_empty_rejected(self, exact_value_oracle):
        with pytest.raises(EmptyInputError):
            tournament_partition([], exact_value_oracle, n_partitions=2)
