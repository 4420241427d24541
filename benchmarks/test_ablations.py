"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's reported tables: they sweep the internal
parameters of Max-Adv (partition count ``l``, repetition count ``t``), the
tournament degree, the probabilistic core size and the FCount decision
threshold, and check the qualitative effect each knob is supposed to have.
"""


import numpy as np

from repro.datasets import make_blobs_space, make_values_with_confusion_set
from repro.kcenter import greedy_kcenter_exact, kcenter_objective, kcenter_probabilistic
from repro.maximum import count_max, max_adversarial, tournament_max
from repro.neighbors.pairwise import pairwise_comp, select_anchor_set
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ProbabilisticNoise,
    ValueComparisonOracle,
)


def _approx_ratio(values, winner):
    return float(np.max(values) / values[winner])


def test_ablation_maxadv_repetitions(benchmark):
    """More Tournament-Partition repetitions t improve the worst observed ratio."""
    mu = 1.0
    rng = np.random.default_rng(0)

    def sweep():
        worst = {}
        for t in (1, 2, 4):
            ratios = []
            for trial in range(8):
                space = make_values_with_confusion_set(
                    200, confusion_fraction=0.02, mu=mu, seed=100 * t + trial
                )
                oracle = ValueComparisonOracle(
                    space, noise=AdversarialNoise(mu=mu)
                )
                winner = max_adversarial(
                    list(range(200)), oracle, n_iterations=t, seed=trial
                )
                ratios.append(_approx_ratio(space.values, winner))
            worst[t] = max(ratios)
        return worst

    worst = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # With few values near the maximum, repetitions drive the failure
    # probability down: t = 4 should not be worse than t = 1.
    assert worst[4] <= worst[1] + 1e-9
    assert worst[4] <= (1 + mu) ** 3 + 1e-9
    benchmark.extra_info["worst_ratio_by_t"] = {k: round(v, 3) for k, v in worst.items()}


def test_ablation_tournament_degree(benchmark):
    """Higher tournament degree trades queries for a better approximation."""
    mu = 0.5
    values = np.random.default_rng(1).uniform(1, 100, size=243)

    def sweep():
        out = {}
        for degree in (2, 3, 9, 243):
            oracle = ValueComparisonOracle(
                values, noise=AdversarialNoise(mu=mu), cache_answers=False
            )
            winner = tournament_max(list(range(243)), oracle, degree=degree, seed=0)
            out[degree] = {
                "ratio": _approx_ratio(values, winner),
                "queries": oracle.counter.total_queries,
            }
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # Query count increases with the degree (Lemma 3.3: O(n * lambda)) ...
    assert out[2]["queries"] < out[9]["queries"] < out[243]["queries"]
    # ... and the guaranteed ratio tightens: a single Count-Max round (degree n)
    # is at least as good as the binary tournament's guarantee in practice.
    assert out[243]["ratio"] <= (1 + mu) ** 2 + 1e-9
    benchmark.extra_info["by_degree"] = {
        k: {"ratio": round(v["ratio"], 3), "queries": v["queries"]} for k, v in out.items()
    }


def test_ablation_core_size_probabilistic_kcenter(benchmark):
    """Larger cores make the probabilistic k-center assignment more reliable."""
    space = make_blobs_space(90, 3, cluster_std=0.3, center_spread=25.0, seed=2)

    def sweep():
        out = {}
        exact = greedy_kcenter_exact(space, k=3, first_center=0)
        baseline = kcenter_objective(space, exact)
        for core_size in (2, 6, 12):
            ratios = []
            for trial in range(3):
                oracle = DistanceQuadrupletOracle(
                    space, noise=ProbabilisticNoise(p=0.25, seed=trial)
                )
                result = kcenter_probabilistic(
                    oracle,
                    k=3,
                    min_cluster_size=20,
                    core_size=core_size,
                    first_center=0,
                    seed=trial,
                )
                ratios.append(kcenter_objective(space, result) / baseline)
            out[core_size] = float(np.mean(ratios))
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert out[12] <= out[2] * 1.5 + 1e-9
    assert out[12] < 6.0
    benchmark.extra_info["mean_ratio_by_core_size"] = {
        k: round(v, 3) for k, v in out.items()
    }


def test_ablation_fcount_threshold(benchmark):
    """The 0.3|S| FCount threshold is robust; extreme thresholds misclassify more."""
    space = make_blobs_space(60, 3, cluster_std=0.3, center_spread=20.0, seed=3)
    query = 0
    anchors = select_anchor_set(space, query=query, size=8)
    near = anchors[0]
    far = space.farthest_from(query)

    def sweep():
        out = {}
        for threshold in (0.1, 0.3, 0.6, 0.9):
            correct = 0
            trials = 30
            for seed in range(trials):
                oracle = DistanceQuadrupletOracle(
                    space, noise=ProbabilisticNoise(p=0.3, seed=seed)
                )
                # Ground truth: `near` IS closer to the query than `far`.
                if pairwise_comp(oracle, near, far, anchors[1:], threshold_fraction=threshold):
                    correct += 1
            out[threshold] = correct / trials
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # The paper's threshold (0.3) answers essentially always correctly, while a
    # 0.9 threshold starts rejecting correct answers under p = 0.3 noise.
    assert out[0.3] >= 0.9
    assert out[0.3] >= out[0.9]
    benchmark.extra_info["accuracy_by_threshold"] = {k: round(v, 3) for k, v in out.items()}


def test_ablation_count_max_sample_size(benchmark):
    """Count-Max over larger samples finds better maxima on skewed data (Samp failure mode)."""
    values = np.random.default_rng(4).pareto(1.5, size=400) + 1.0

    def sweep():
        out = {}
        for sample_size in (5, 20, 80, 400):
            oracle = ValueComparisonOracle(
                values, noise=AdversarialNoise(mu=0.5)
            )
            rng = np.random.default_rng(0)
            sample = list(rng.choice(400, size=sample_size, replace=False))
            winner = count_max(sample, oracle, seed=0)
            out[sample_size] = _approx_ratio(values, winner)
        return out

    out = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # The full set always contains the optimum; a 5-element sample usually
    # misses it badly on heavy-tailed data.
    assert out[400] <= out[5] + 1e-9
    benchmark.extra_info["ratio_by_sample_size"] = {k: round(v, 3) for k, v in out.items()}
