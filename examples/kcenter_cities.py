#!/usr/bin/env python
"""Facility location on a skewed geographic dataset (the cities workload).

k-center clustering over a synthetic US-cities point cloud: pick k cities so
that the maximum great-circle distance from any city to its nearest selected
city is minimised, using only noisy relative-distance comparisons.

The script sweeps k under adversarial noise (mu = 1) and probabilistic noise
(p = 0.1) and prints the objective of our algorithm (kC), the Tour2 / Samp
baselines and the noise-free greedy (TDist) — a miniature of the paper's
Figure 6.

Run with::

    python examples/kcenter_cities.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import kcenter_samp, kcenter_tour2
from repro.datasets import make_cities
from repro.kcenter import (
    greedy_kcenter_exact,
    kcenter_adversarial,
    kcenter_objective,
    kcenter_probabilistic,
)
from repro.oracles import (
    AdversarialNoise,
    DistanceQuadrupletOracle,
    ProbabilisticNoise,
    QueryCounter,
)

SEED = 11
N_CITIES = 250
K_VALUES = (3, 5, 10)


def run_panel(space, noise_kind: str, level: float) -> None:
    rng = np.random.default_rng(SEED)
    print(f"--- {noise_kind} noise ({'mu' if noise_kind == 'adversarial' else 'p'} = {level}) ---")
    print(f"{'k':>3s} {'TDist':>10s} {'kC':>10s} {'Tour2':>10s} {'Samp':>10s}  (max radius, km)")
    for k in K_VALUES:
        first_center = int(rng.integers(0, len(space)))

        def fresh_oracle():
            if noise_kind == "adversarial":
                # The adversary draws nothing; taking one draw per oracle
                # anyway, as the probabilistic branch does, keeps the later
                # first_center picks on the same stream in both panels.
                rng.integers(0, 2**31)
                noise = AdversarialNoise(mu=level)
            else:
                noise = ProbabilisticNoise(p=level, seed=int(rng.integers(0, 2**31)))
            return DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())

        exact = greedy_kcenter_exact(space, k, first_center=first_center)
        if noise_kind == "adversarial":
            ours = kcenter_adversarial(fresh_oracle(), k, first_center=first_center, seed=SEED)
        else:
            ours = kcenter_probabilistic(
                fresh_oracle(),
                k,
                min_cluster_size=max(4, len(space) // (4 * k)),
                first_center=first_center,
                seed=SEED,
            )
        tour2 = kcenter_tour2(fresh_oracle(), k, first_center=first_center, seed=SEED)
        samp = kcenter_samp(fresh_oracle(), k, first_center=first_center, seed=SEED)

        print(
            f"{k:3d} "
            f"{kcenter_objective(space, exact):10.1f} "
            f"{kcenter_objective(space, ours):10.1f} "
            f"{kcenter_objective(space, tour2):10.1f} "
            f"{kcenter_objective(space, samp):10.1f}"
        )
    print()


def main() -> None:
    space = make_cities(N_CITIES, outlier_fraction=0.02, seed=SEED)
    print(f"{len(space)} synthetic cities (skewed geographic cloud, haversine distances)\n")
    run_panel(space, "adversarial", 1.0)
    run_panel(space, "probabilistic", 0.1)
    print(
        "Expected shape (Figure 6): kC tracks TDist closely for every k and noise\n"
        "model, while Samp suffers on this skewed data and Tour2 degrades under\n"
        "probabilistic noise."
    )


if __name__ == "__main__":
    main()
