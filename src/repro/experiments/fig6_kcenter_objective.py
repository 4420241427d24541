"""Figure 6: k-center objective versus k under adversarial and probabilistic noise.

The paper sweeps ``k`` on the cities and dblp datasets, under adversarial
noise (``mu = 1`` for cities, ``mu = 0.5`` for dblp) and probabilistic noise
(``p = 0.1``), and plots the k-center objective (maximum cluster radius) of
our algorithm (``kC``), the Tour2 and Samp baselines, and the noise-free
greedy (``TDist``).  The expected shape: kC stays close to TDist for every k
and noise model, Tour2 is comparable under adversarial noise but degrades
under probabilistic noise, Samp is consistently worse.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines import kcenter_samp, kcenter_tour2
from repro.datasets.registry import load_dataset
from repro.experiments.base import ExperimentResult
from repro.kcenter import (
    greedy_kcenter_exact,
    kcenter_adversarial,
    kcenter_objective,
    kcenter_probabilistic,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import AdversarialNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.rng import SeedLike, ensure_rng

#: The four panels of Figure 6: (dataset, noise kind, noise level).
FIG6_PANELS = (
    ("cities", "adversarial", 1.0),
    ("dblp", "adversarial", 0.5),
    ("cities", "probabilistic", 0.1),
    ("dblp", "probabilistic", 0.1),
)

DEFAULT_K_VALUES = (5, 10, 20, 40)


def _make_oracle(space, noise_kind: str, level: float, seed) -> DistanceQuadrupletOracle:
    if noise_kind == "adversarial":
        noise = AdversarialNoise(mu=level)
    else:
        noise = ProbabilisticNoise(p=level, seed=seed)
    return DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())


def run(
    n_points: Optional[int] = None,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    panels=FIG6_PANELS,
    min_cluster_size: Optional[int] = None,
    seed: SeedLike = 0,
) -> ExperimentResult:
    """Sweep k and report the k-center objective of kC / Tour2 / Samp / TDist.

    Parameters
    ----------
    n_points:
        Records per dataset (defaults to the registry's scaled-down sizes).
    k_values:
        The k sweep (the paper uses 5..100; the scaled default is 5..40).
    panels:
        The (dataset, noise kind, level) panels to run.
    min_cluster_size:
        ``m`` passed to the probabilistic algorithm (default ``n / (4 k)``).
    seed:
        Seed controlling datasets, noise and algorithm randomisation.
    """
    rng = ensure_rng(seed)
    result = ExperimentResult(
        name="fig6_kcenter",
        description="k-center objective vs k under adversarial / probabilistic noise",
        params={
            "n_points": n_points,
            "k_values": list(k_values),
            "panels": [list(p) for p in panels],
            "seed": seed,
        },
    )
    for dataset, noise_kind, level in panels:
        space = load_dataset(dataset, n_points=n_points, seed=rng.integers(0, 2**31))
        n = len(space)
        for k in k_values:
            if k > n:
                continue
            first_center = int(rng.integers(0, n))
            exact = greedy_kcenter_exact(space, k, first_center=first_center)
            objectives: Dict[str, float] = {"tdist": kcenter_objective(space, exact)}
            queries: Dict[str, int] = {"tdist": 0}

            # Our algorithm for the matching noise model.
            oracle = _make_oracle(space, noise_kind, level, rng.integers(0, 2**31))
            if noise_kind == "adversarial":
                ours = kcenter_adversarial(
                    oracle, k, first_center=first_center, seed=rng.integers(0, 2**31)
                )
            else:
                m = min_cluster_size or max(4, n // (4 * k))
                ours = kcenter_probabilistic(
                    oracle,
                    k,
                    min_cluster_size=m,
                    first_center=first_center,
                    seed=rng.integers(0, 2**31),
                )
            objectives["kc"] = kcenter_objective(space, ours)
            queries["kc"] = ours.n_queries

            oracle_t2 = _make_oracle(space, noise_kind, level, rng.integers(0, 2**31))
            tour2 = kcenter_tour2(
                oracle_t2, k, first_center=first_center, seed=rng.integers(0, 2**31)
            )
            objectives["tour2"] = kcenter_objective(space, tour2)
            queries["tour2"] = tour2.n_queries

            oracle_samp = _make_oracle(space, noise_kind, level, rng.integers(0, 2**31))
            samp = kcenter_samp(
                oracle_samp, k, first_center=first_center, seed=rng.integers(0, 2**31)
            )
            objectives["samp"] = kcenter_objective(space, samp)
            queries["samp"] = samp.n_queries

            for method in ("kc", "tour2", "samp", "tdist"):
                result.rows.append(
                    {
                        "dataset": dataset,
                        "noise": noise_kind,
                        "level": level,
                        "k": k,
                        "method": method,
                        "objective": objectives[method],
                        "objective_vs_tdist": (
                            objectives[method] / objectives["tdist"]
                            if objectives["tdist"] > 0
                            else 1.0
                        ),
                        "n_queries": queries[method],
                    }
                )
    return result


from repro.engine.spec import ExperimentSpec, register

SPEC = register(
    ExperimentSpec(
        name="fig6_kcenter",
        runner=run,
        description="k-center objective vs k under adversarial / probabilistic noise",
        paper_ref="Figure 6",
        key_columns=("dataset", "noise", "level", "k", "method"),
        quick={"n_points": 200, "k_values": [5, 10]},
        defaults={"k_values": list(DEFAULT_K_VALUES), "panels": [list(p) for p in FIG6_PANELS]},
    )
)
