"""Tests for Count-Max (Algorithm 1) and count scores."""

import numpy as np
import pytest

from repro.exceptions import EmptyInputError
from repro.maximum.count_max import count_max, count_min, count_scores, count_scores_array
from repro.oracles import AdversarialNoise, ValueComparisonOracle


def test_count_scores_with_exact_oracle(small_values, exact_value_oracle):
    items = list(range(len(small_values)))
    scores = count_scores(items, exact_value_oracle)
    # With a perfect oracle, Count equals the number of smaller values.
    order = np.argsort(np.argsort(small_values))
    for i in items:
        assert scores[i] == order[i]


def test_count_max_exact_returns_true_maximum(small_values, exact_value_oracle):
    assert count_max(list(range(len(small_values))), exact_value_oracle) == 3


def test_count_min_exact_returns_true_minimum(small_values, exact_value_oracle):
    assert count_min(list(range(len(small_values))), exact_value_oracle) == 4


def test_count_max_on_subset(small_values, exact_value_oracle):
    subset = [0, 1, 2, 4]  # max among these is index 1 (value 12)
    assert count_max(subset, exact_value_oracle) == 1


def test_count_max_single_item():
    oracle = ValueComparisonOracle([42.0])
    assert count_max([0], oracle) == 0


def test_count_max_empty_rejected(exact_value_oracle):
    with pytest.raises(EmptyInputError):
        count_max([], exact_value_oracle)
    with pytest.raises(EmptyInputError):
        count_scores([], exact_value_oracle)


def test_count_max_query_complexity_quadratic(small_values):
    oracle = ValueComparisonOracle(small_values, cache_answers=False)
    n = len(small_values)
    count_max(list(range(n)), oracle)
    assert oracle.counter.total_queries == n * (n - 1) // 2


def test_count_scores_array_order(small_values, exact_value_oracle):
    items = [3, 0, 4]
    arr = count_scores_array(items, exact_value_oracle)
    assert arr.tolist() == [2, 1, 0]


def test_count_max_paper_example_3_2():
    """Example 3.2: values 51, 101, 102, 202 with mu=1 and a lying adversary.

    The oracle must answer O(u, t) correctly (ratio ~3.96 > 2); all other
    pairs are within a factor 2 and are answered wrongly.  Count-Max then
    returns either u or v, a ~3.96-approximation, never anything worse.
    """
    values = [51.0, 101.0, 102.0, 202.0]  # u, v, w, t
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=1.0))
    scores = count_scores([0, 1, 2, 3], oracle)
    assert scores[0] == 2 and scores[1] == 2
    assert scores[2] == 1 and scores[3] == 1
    winner = count_max([0, 1, 2, 3], oracle, seed=0)
    assert winner in (0, 1)


def test_count_max_approximation_guarantee_lemma_3_1():
    """Lemma 3.1: Count-Max is a (1 + mu)^2 approximation under adversarial noise."""
    rng = np.random.default_rng(0)
    mu = 0.5
    for trial in range(10):
        values = rng.uniform(1.0, 100.0, size=25)
        oracle = ValueComparisonOracle(
            values, noise=AdversarialNoise(mu=mu)
        )
        winner = count_max(list(range(25)), oracle, seed=trial)
        assert values[winner] >= values.max() / (1 + mu) ** 2 - 1e-9


def test_count_max_tie_breaking_is_seeded(small_values):
    values = [1.0, 1.0, 1.0]
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=0.0))
    a = count_max([0, 1, 2], oracle, seed=5)
    b = count_max([0, 1, 2], oracle, seed=5)
    assert a == b
