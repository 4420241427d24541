"""Property-based tests (hypothesis) on core invariants of the library."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation.fscore import pairwise_fscore, pairwise_precision_recall
from repro.hierarchical import exact_linkage
from repro.kcenter import greedy_kcenter_exact, kcenter_objective
from repro.maximum import count_max, count_min, max_adversarial, tournament_max
from repro.maximum.ranking import rank_of
from repro.metric.space import PointCloudSpace, ValueSpace
from repro.oracles import (
    AdversarialNoise,
    ExactNoise,
    ProbabilisticNoise,
    ValueComparisonOracle,
)

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=25
)
settings.load_profile("repro")

finite_floats = st.floats(
    min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=40)


@given(values=value_lists)
def test_count_max_exact_oracle_always_finds_argmax(values):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = count_max(list(range(len(values))), oracle, seed=0)
    assert values[winner] == pytest.approx(max(values))


@given(values=value_lists)
def test_count_min_exact_oracle_always_finds_argmin(values):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = count_min(list(range(len(values))), oracle, seed=0)
    assert values[winner] == pytest.approx(min(values))


@given(values=value_lists, degree=st.integers(min_value=2, max_value=5))
def test_tournament_exact_oracle_finds_maximum(values, degree):
    oracle = ValueComparisonOracle(values, noise=ExactNoise())
    winner = tournament_max(list(range(len(values))), oracle, degree=degree, seed=0)
    assert values[winner] == pytest.approx(max(values))


@given(values=st.lists(finite_floats, min_size=3, max_size=40), mu=st.floats(0.0, 1.5))
def test_count_max_respects_lemma_3_1_bound(values, mu):
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu))
    winner = count_max(list(range(len(values))), oracle, seed=0)
    assert values[winner] >= max(values) / (1 + mu) ** 2 - 1e-9


@given(values=st.lists(finite_floats, min_size=3, max_size=60), mu=st.floats(0.0, 1.0))
def test_max_adversarial_never_returns_item_outside_input(values, mu):
    oracle = ValueComparisonOracle(values, noise=AdversarialNoise(mu=mu))
    items = list(range(len(values)))
    winner = max_adversarial(items, oracle, seed=0)
    assert winner in items


@given(
    values=st.lists(finite_floats, min_size=2, max_size=40, unique=True),
    p=st.floats(0.0, 0.45),
)
def test_comparison_oracle_antisymmetry_under_any_noise(values, p):
    oracle = ValueComparisonOracle(values, noise=ProbabilisticNoise(p=p, seed=0))
    for i in range(0, len(values), 3):
        for j in range(1, len(values), 4):
            if i == j:
                continue
            assert oracle.compare(i, j) == (not oracle.compare(j, i))


@given(values=st.lists(finite_floats, min_size=1, max_size=30, unique=True))
def test_rank_of_is_a_permutation(values):
    ranks = sorted(rank_of(values, i) for i in range(len(values)))
    assert ranks == list(range(1, len(values) + 1))


@st.composite
def point_clouds(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    dim = draw(st.integers(min_value=1, max_value=3))
    coords = draw(
        st.lists(
            st.lists(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                min_size=dim,
                max_size=dim,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return PointCloudSpace(np.asarray(coords))


@given(space=point_clouds())
def test_point_cloud_satisfies_metric_axioms(space):
    n = len(space)
    for i in range(min(n, 6)):
        assert space.distance(i, i) == pytest.approx(0.0)
        for j in range(min(n, 6)):
            d_ij = space.distance(i, j)
            assert d_ij >= 0
            assert d_ij == pytest.approx(space.distance(j, i))
            for k in range(min(n, 4)):
                assert d_ij <= space.distance(i, k) + space.distance(k, j) + 1e-6


@given(space=point_clouds(), k=st.integers(min_value=1, max_value=5))
def test_greedy_kcenter_invariants(space, k):
    k = min(k, len(space))
    result = greedy_kcenter_exact(space, k=k, seed=0)
    # Centers are distinct points, every point is assigned, objective is the
    # max distance to the assigned center and never negative.
    assert len(set(result.centers)) == len(result.centers)
    assert set(result.assignment) == set(range(len(space)))
    assert kcenter_objective(space, result) >= 0.0
    for c in result.centers:
        assert result.assignment[c] == c


@given(space=point_clouds())
def test_exact_single_linkage_merge_distances_monotone(space):
    den = exact_linkage(space, linkage="single")
    distances = den.true_merge_distances()
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))
    assert den.is_complete


@given(
    labels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30)
)
def test_fscore_perfect_on_identical_labelings(labels):
    assert pairwise_fscore(labels, labels) == pytest.approx(1.0)


@given(
    predicted=st.lists(st.integers(0, 3), min_size=2, max_size=25),
    truth_seed=st.integers(0, 100),
)
def test_fscore_bounded_between_zero_and_one(predicted, truth_seed):
    rng = np.random.default_rng(truth_seed)
    truth = rng.integers(0, 3, size=len(predicted))
    precision, recall = pairwise_precision_recall(predicted, truth)
    score = pairwise_fscore(predicted, truth)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= score <= 1.0


@given(values=st.lists(finite_floats, min_size=1, max_size=30, unique=True))
def test_value_space_rank_and_argmax_consistent(values):
    space = ValueSpace(values)
    assert space.rank_of(space.argmax()) == 1
    assert space.rank_of(space.argmin()) == len(values)
