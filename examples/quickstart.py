#!/usr/bin/env python
"""Quickstart: finding the maximum and the farthest neighbour with a noisy oracle.

This walks through the library's three core ideas in a couple of minutes:

1. values / records live in a hidden ground truth the algorithms never read;
2. every algorithm only talks to a Yes/No comparison oracle whose answers may
   be wrong (adversarial or probabilistic noise);
3. the robust algorithms (Count-Max, Max-Adv, Count-Max-Prob) recover
   near-optimal answers anyway, while naive strategies do not.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.datasets import make_skewed_values, make_uniform_space
from repro.maximum import count_max, max_adversarial, max_probabilistic, naive_max
from repro.maximum.ranking import approximation_ratio, rank_of
from repro.neighbors import exact_farthest, farthest_adversarial
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ProbabilisticNoise,
    QueryCounter,
    ValueComparisonOracle,
)

SEED = 0


def finding_maximum_under_adversarial_noise() -> None:
    print("=" * 72)
    print("1. Finding the maximum of 500 values, adversarial noise (mu = 1.0)")
    print("=" * 72)
    values = make_skewed_values(500, seed=SEED).values
    mu = 1.0
    oracle = ValueComparisonOracle(
        values, noise=AdversarialNoise(mu=mu), counter=QueryCounter()
    )
    items = list(range(len(values)))

    naive = naive_max(items, oracle)
    robust = max_adversarial(items, oracle, delta=0.05, seed=SEED)

    print(f"true maximum value      : {values.max():.2f}")
    print(
        f"naive sequential scan   : {values[naive]:.2f} "
        f"(ratio {approximation_ratio(values, naive):.2f})"
    )
    print(
        f"Max-Adv (Algorithm 4)   : {values[robust]:.2f} "
        f"(ratio {approximation_ratio(values, robust):.2f}, "
        f"guarantee (1 + mu)^3 = {(1 + mu) ** 3:.1f})"
    )
    print(f"oracle queries charged  : {oracle.counter.charged_queries}")
    print()


def finding_maximum_under_probabilistic_noise() -> None:
    print("=" * 72)
    print("2. Finding the maximum of 500 values, persistent probabilistic noise (p = 0.3)")
    print("=" * 72)
    values = np.random.default_rng(SEED).uniform(0, 1000, size=500)
    oracle = ValueComparisonOracle(
        values, noise=ProbabilisticNoise(p=0.3, seed=SEED), counter=QueryCounter()
    )
    items = list(range(len(values)))

    single_round = count_max(items[:50], oracle, seed=SEED)
    robust = max_probabilistic(items, oracle, delta=0.05, seed=SEED)

    print(f"true maximum value              : {values.max():.2f}")
    print(
        f"Count-Max on a 50-value subset  : {values[single_round]:.2f} "
        f"(rank {rank_of(values, single_round)})"
    )
    print(
        f"Count-Max-Prob (Algorithm 12)   : {values[robust]:.2f} "
        f"(rank {rank_of(values, robust)} of {len(values)})"
    )
    print(f"oracle queries charged          : {oracle.counter.charged_queries}")
    print()


def farthest_neighbour_with_a_quadruplet_oracle() -> None:
    print("=" * 72)
    print("3. Farthest neighbour search with a noisy quadruplet oracle")
    print("=" * 72)
    space = make_uniform_space(400, dimension=2, seed=SEED)
    oracle = DistanceQuadrupletOracle(
        space, noise=AdversarialNoise(mu=0.5), counter=QueryCounter()
    )
    query = 0
    robust = farthest_adversarial(oracle, query=query, delta=0.05, seed=SEED)
    optimum = exact_farthest(space, query)

    print(f"query record                : {query}")
    print(
        f"true farthest neighbour     : record {optimum} "
        f"at distance {space.distance(query, optimum):.3f}"
    )
    print(
        f"robust farthest (Max-Adv)   : record {robust} "
        f"at distance {space.distance(query, robust):.3f}"
    )
    print(f"oracle queries charged      : {oracle.counter.charged_queries}")
    print()


if __name__ == "__main__":
    finding_maximum_under_adversarial_noise()
    finding_maximum_under_probabilistic_noise()
    farthest_neighbour_with_a_quadruplet_oracle()
