"""Tests for Max-Adv (Algorithm 4)."""

import numpy as np
import pytest

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.maximum.adversarial import MaxAdvParameters, max_adversarial, min_adversarial
from repro.oracles import AdversarialNoise, ExactNoise, ValueComparisonOracle


class TestParameters:
    def test_defaults_follow_paper(self):
        params = MaxAdvParameters.from_defaults(100, delta=0.1)
        assert params.n_partitions == 10  # sqrt(100)
        assert params.n_iterations >= 1
        assert params.sample_size <= 100

    def test_explicit_overrides(self):
        params = MaxAdvParameters.from_defaults(
            50, n_iterations=3, n_partitions=5, sample_size=20
        )
        assert (params.n_iterations, params.n_partitions, params.sample_size) == (3, 5, 20)

    def test_invalid_inputs(self):
        with pytest.raises(EmptyInputError):
            MaxAdvParameters.from_defaults(0)
        with pytest.raises(InvalidParameterError):
            MaxAdvParameters.from_defaults(10, delta=2.0)
        with pytest.raises(InvalidParameterError):
            MaxAdvParameters.from_defaults(10, n_iterations=0)
        with pytest.raises(InvalidParameterError):
            MaxAdvParameters.from_defaults(10, n_partitions=0)
        with pytest.raises(InvalidParameterError):
            MaxAdvParameters.from_defaults(10, sample_size=0)


class TestMaxAdversarial:
    def test_exact_oracle_returns_true_maximum(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1000, size=120)
        oracle = ValueComparisonOracle(values, noise=ExactNoise())
        winner = max_adversarial(list(range(120)), oracle, seed=0)
        assert winner == int(np.argmax(values))

    def test_exact_oracle_min(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1000, size=80)
        oracle = ValueComparisonOracle(values, noise=ExactNoise())
        winner = min_adversarial(list(range(80)), oracle, seed=0)
        assert winner == int(np.argmin(values))

    def test_small_inputs_handled(self, exact_value_oracle):
        assert max_adversarial([5], exact_value_oracle) == 5
        assert max_adversarial([4, 3], exact_value_oracle) == 3

    def test_empty_rejected(self, exact_value_oracle):
        with pytest.raises(EmptyInputError):
            max_adversarial([], exact_value_oracle)

    def test_theorem_3_6_approximation(self):
        """Max-Adv returns a (1+mu)^3 approximation under the lying adversary."""
        rng = np.random.default_rng(7)
        mu = 0.5
        failures = 0
        trials = 12
        for trial in range(trials):
            values = rng.uniform(1.0, 200.0, size=100)
            oracle = ValueComparisonOracle(
                values, noise=AdversarialNoise(mu=mu)
            )
            winner = max_adversarial(list(range(100)), oracle, delta=0.05, seed=trial)
            if values[winner] < values.max() / (1 + mu) ** 3 - 1e-9:
                failures += 1
        # delta = 0.05 per trial; allow a single unlucky trial.
        assert failures <= 1

    def test_query_complexity_scales_linearly(self):
        """Charged queries grow roughly linearly in n (Theorem 3.6), not quadratically."""
        mu = 0.5
        counts = {}
        for n in (64, 256):
            values = np.random.default_rng(n).uniform(1, 100, size=n)
            oracle = ValueComparisonOracle(
                values, noise=AdversarialNoise(mu=mu), cache_answers=False
            )
            max_adversarial(list(range(n)), oracle, delta=0.2, seed=0)
            counts[n] = oracle.counter.total_queries
        ratio = counts[256] / counts[64]
        # Linear scaling would give 4; quadratic would give 16.  Allow slack for
        # the sqrt(n)-sized Count-Max at the end.
        assert ratio < 9

    def test_seeded_runs_reproducible(self):
        values = np.random.default_rng(3).uniform(0, 10, size=50)
        oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=1.0))
        a = max_adversarial(list(range(50)), oracle, seed=9)
        b = max_adversarial(list(range(50)), oracle, seed=9)
        assert a == b

    def test_respects_item_subset(self, small_values, exact_value_oracle):
        subset = [0, 2, 4, 6]
        winner = max_adversarial(subset, exact_value_oracle, seed=0)
        assert winner in subset
        assert winner == 2  # value 7.5 is the largest among the subset

    def test_duplicate_items_do_not_break(self, small_values, exact_value_oracle):
        winner = max_adversarial([1, 1, 1, 3, 3], exact_value_oracle, seed=0)
        assert winner == 3
