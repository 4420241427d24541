"""Property tests: ``compare_batch`` agrees elementwise with scalar ``compare``.

The batch oracle contract (see README, "Batched oracle contract") promises
that for every oracle and adapter class, a ``compare_batch`` call over query
arrays produces exactly the answers that a loop of scalar ``compare`` calls
in array order would produce — including cache effects, persistent noise
draws and query-accounting totals.  These tests enforce the contract under
``ExactNoise`` and under seeded ``ProbabilisticNoise`` for two regimes:

* **fresh-vs-fresh** — two identically-seeded oracles, one queried scalar,
  one batched: the noise draws themselves must line up.
* **same-instance** — scalar queries first, then the same queries batched on
  the same oracle: every batched answer must be served from persistence and
  recorded as cached.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metric.space import PointCloudSpace
from repro.oracles.base import (
    AssignmentDistanceOracle,
    DistanceFromQueryOracle,
    FunctionComparisonOracle,
    MinimizingComparisonOracle,
)
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import AdversarialNoise, ExactNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.neighbors.pairwise import PairwiseCompOracle

N_POINTS = 24
N_QUERIES = 300
NOISE_FACTORIES = {
    "exact": lambda: ExactNoise(),
    "probabilistic": lambda: ProbabilisticNoise(p=0.25, seed=99),
    "adversarial_lie": lambda: AdversarialNoise(mu=0.5),
}


def _space():
    rng = np.random.default_rng(11)
    return PointCloudSpace(rng.normal(size=(N_POINTS, 3)))


def _values():
    # Non-negative so the adversarial confusion band is well-defined.
    return np.random.default_rng(5).uniform(0.5, 10.0, size=N_POINTS)


def _pair_queries(rng, n):
    """Random (i, j) queries with duplicates, reversals and self-pairs mixed in."""
    i = rng.integers(0, N_POINTS, size=n)
    j = rng.integers(0, N_POINTS, size=n)
    j[:: 17] = i[:: 17]  # self-pairs
    i[5::11], j[5::11] = j[5::11].copy(), i[5::11].copy()  # reversed repeats
    return i, j


def _quad_queries(rng, n):
    a, b = _pair_queries(rng, n)
    c, d = _pair_queries(rng, n)
    c[::13], d[::13] = a[::13], b[::13]  # same-pair-vs-itself queries
    return a, b, c, d


def _quadruplet_oracle(noise_name, cache_answers=True):
    return DistanceQuadrupletOracle(
        _space(),
        noise=NOISE_FACTORIES[noise_name](),
        counter=QueryCounter(),
        cache_answers=cache_answers,
    )


def _comparison_oracle(noise_name, cache_answers=True):
    return ValueComparisonOracle(
        _values(),
        noise=NOISE_FACTORIES[noise_name](),
        counter=QueryCounter(),
        cache_answers=cache_answers,
    )


def _assert_counters_equal(scalar_counter, batch_counter):
    assert scalar_counter.snapshot() == batch_counter.snapshot()


@pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
@pytest.mark.parametrize("cache_answers", [True, False])
def test_quadruplet_fresh_vs_fresh(noise_name, cache_answers):
    rng = np.random.default_rng(0)
    a, b, c, d = _quad_queries(rng, N_QUERIES)
    scalar_oracle = _quadruplet_oracle(noise_name, cache_answers)
    batch_oracle = _quadruplet_oracle(noise_name, cache_answers)
    scalar = [scalar_oracle.compare(*q) for q in zip(a, b, c, d)]
    batched = batch_oracle.compare_batch(a, b, c, d)
    assert batched.dtype == bool
    np.testing.assert_array_equal(batched, scalar)
    _assert_counters_equal(scalar_oracle.counter, batch_oracle.counter)
    assert scalar_oracle._answer_cache == batch_oracle._answer_cache


@pytest.mark.parametrize("noise_name", ["exact", "probabilistic"])
def test_quadruplet_same_instance_batch_is_cached(noise_name):
    rng = np.random.default_rng(1)
    a, b, c, d = _quad_queries(rng, N_QUERIES)
    oracle = _quadruplet_oracle(noise_name)
    scalar = [oracle.compare(*q) for q in zip(a, b, c, d)]
    charged_before = oracle.counter.charged_queries
    batched = oracle.compare_batch(a, b, c, d)
    np.testing.assert_array_equal(batched, scalar)
    # Every repeated (non-self-pair) query was served from cache: nothing new
    # charged, and the repeats were recorded as cached rather than dropped.
    assert oracle.counter.charged_queries == charged_before
    assert oracle.counter.cached_queries > 0


@pytest.mark.parametrize("noise_name", sorted(NOISE_FACTORIES))
@pytest.mark.parametrize("cache_answers", [True, False])
def test_value_comparison_fresh_vs_fresh(noise_name, cache_answers):
    rng = np.random.default_rng(2)
    i, j = _pair_queries(rng, N_QUERIES)
    scalar_oracle = _comparison_oracle(noise_name, cache_answers)
    batch_oracle = _comparison_oracle(noise_name, cache_answers)
    scalar = [scalar_oracle.compare(int(x), int(y)) for x, y in zip(i, j)]
    batched = batch_oracle.compare_batch(i, j)
    np.testing.assert_array_equal(batched, scalar)
    _assert_counters_equal(scalar_oracle.counter, batch_oracle.counter)


@pytest.mark.parametrize("noise_name", ["exact", "probabilistic"])
def test_minimizing_adapter(noise_name):
    rng = np.random.default_rng(3)
    i, j = _pair_queries(rng, N_QUERIES)
    scalar_view = MinimizingComparisonOracle(_comparison_oracle(noise_name))
    batch_view = MinimizingComparisonOracle(_comparison_oracle(noise_name))
    scalar = [scalar_view.compare(int(x), int(y)) for x, y in zip(i, j)]
    np.testing.assert_array_equal(batch_view.compare_batch(i, j), scalar)
    _assert_counters_equal(scalar_view.counter, batch_view.counter)


@pytest.mark.parametrize("noise_name", ["exact", "probabilistic"])
def test_distance_from_query_adapter(noise_name):
    rng = np.random.default_rng(4)
    i, j = _pair_queries(rng, N_QUERIES)
    scalar_view = DistanceFromQueryOracle(_quadruplet_oracle(noise_name), query=0)
    batch_view = DistanceFromQueryOracle(_quadruplet_oracle(noise_name), query=0)
    scalar = [scalar_view.compare(int(x), int(y)) for x, y in zip(i, j)]
    np.testing.assert_array_equal(batch_view.compare_batch(i, j), scalar)
    _assert_counters_equal(scalar_view.counter, batch_view.counter)


@pytest.mark.parametrize("noise_name", ["exact", "probabilistic"])
@pytest.mark.parametrize("as_dict", [False, True])
def test_assignment_distance_adapter(noise_name, as_dict):
    rng = np.random.default_rng(6)
    i, j = _pair_queries(rng, N_QUERIES)
    assignment = rng.integers(0, N_POINTS, size=N_POINTS)
    if as_dict:
        assignment = {idx: int(c) for idx, c in enumerate(assignment)}
    scalar_view = AssignmentDistanceOracle(_quadruplet_oracle(noise_name), assignment)
    batch_view = AssignmentDistanceOracle(_quadruplet_oracle(noise_name), assignment)
    scalar = [scalar_view.compare(int(x), int(y)) for x, y in zip(i, j)]
    np.testing.assert_array_equal(batch_view.compare_batch(i, j), scalar)
    _assert_counters_equal(scalar_view.counter, batch_view.counter)


@pytest.mark.parametrize("noise_name", ["exact", "probabilistic"])
@pytest.mark.parametrize("minimize", [False, True])
def test_pairwise_comp_adapter(noise_name, minimize):
    rng = np.random.default_rng(7)
    i, j = _pair_queries(rng, 80)
    anchors = [0, 3, 7, 11, 15]
    scalar_view = PairwiseCompOracle(
        _quadruplet_oracle(noise_name), anchors, minimize=minimize
    )
    batch_view = PairwiseCompOracle(
        _quadruplet_oracle(noise_name), anchors, minimize=minimize
    )
    scalar = [scalar_view.compare(int(x), int(y)) for x, y in zip(i, j)]
    np.testing.assert_array_equal(batch_view.compare_batch(i, j), scalar)
    _assert_counters_equal(scalar_view.counter, batch_view.counter)


def test_function_oracle_batch_charges_once_per_query():
    counter = QueryCounter()
    oracle = FunctionComparisonOracle(
        lambda i, j: i <= j, counter=counter, charge=True, tag="fn"
    )
    out = oracle.compare_batch([0, 2, 3], [1, 1, 3])
    np.testing.assert_array_equal(out, [True, False, True])
    assert counter.total_queries == 3
    assert counter.by_tag == {"fn": 3}


def test_base_fallback_loop_matches_scalar():
    """The base-class loop fallback is itself contract-compliant."""
    from repro.oracles.base import BaseQuadrupletOracle

    oracle = _quadruplet_oracle("probabilistic")
    rng = np.random.default_rng(8)
    a, b, c, d = _quad_queries(rng, 50)
    fallback = BaseQuadrupletOracle.compare_batch(oracle, a, b, c, d)
    reference = _quadruplet_oracle("probabilistic")
    scalar = [reference.compare(*q) for q in zip(a, b, c, d)]
    np.testing.assert_array_equal(fallback, scalar)


def test_batch_empty_input():
    oracle = _quadruplet_oracle("exact")
    out = oracle.compare_batch([], [], [], [])
    assert out.shape == (0,)
    assert oracle.counter.total_queries == 0


def test_batch_rejects_out_of_range_indices():
    from repro.exceptions import InvalidParameterError

    oracle = _quadruplet_oracle("exact")
    with pytest.raises(InvalidParameterError):
        oracle.compare_batch([0], [1], [2], [N_POINTS])
    cmp_oracle = _comparison_oracle("exact")
    with pytest.raises(InvalidParameterError):
        cmp_oracle.compare_batch([0], [N_POINTS])


def test_space_batch_helpers_reject_out_of_range_indices():
    """Negative indices must raise, not silently wrap via fancy indexing."""
    from repro.exceptions import InvalidParameterError

    space = _space()
    with pytest.raises(InvalidParameterError):
        space.pair_distances([0], [-1])
    with pytest.raises(InvalidParameterError):
        space.distances_from(0, [1, -1])
    with pytest.raises(InvalidParameterError):
        space.distances_from(0, [N_POINTS])


def test_noise_keyspaces_disjoint_across_oracle_types():
    """One crowd (noise model) serving both oracle types keeps answers separate.

    The comparison-oracle code for pair (0, 3) and the quadruplet code for
    O(0, 0, 0, 3) used to both encode to 3; the negative-range comparison
    codes keep them distinct.
    """
    noise = ProbabilisticNoise(p=0.3, seed=2)
    quad = DistanceQuadrupletOracle(
        _space(), noise=noise, counter=QueryCounter(), cache_answers=False
    )
    cmp_oracle = ValueComparisonOracle(
        _values()[: len(quad.space)], noise=noise, counter=QueryCounter(),
        cache_answers=False,
    )
    quad.compare(0, 0, 0, 3)
    cmp_oracle.compare(0, 3)
    assert noise.n_persisted == 2


def test_scalar_then_batch_mixed_on_one_oracle():
    """Scalar and batched queries interleave against one shared cache."""
    oracle = _quadruplet_oracle("probabilistic")
    first = oracle.compare(0, 1, 2, 3)
    batched = oracle.compare_batch([0, 2], [1, 3], [2, 0], [3, 1])
    # Same canonical query asked three ways: original, reversed pair order.
    assert batched[0] == first
    assert batched[1] == (not first)
    assert oracle.counter.charged_queries == 1
    assert oracle.counter.cached_queries == 2
