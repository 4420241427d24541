"""Figure 8: farthest-point quality versus synthetic noise level on cities.

The paper sweeps adversarial noise ``mu in {0, 0.5, 1, 2}`` and probabilistic
noise ``p in {0, 0.1, 0.3}`` with a synthetically simulated oracle and plots
the true distance of the farthest point returned by Far, Tour2 and Samp
against the optimum (``TDist``).  The expected shape: Far stays within a
small factor of the optimum at every noise level, Tour2 matches Far at low
noise and degrades as noise grows, Samp is limited by whether its sample
contains a near-optimal point (it does not, on the skewed cities data).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.registry import load_dataset
from repro.evaluation.ranks import normalized_distance
from repro.experiments.base import ExperimentResult
from repro.neighbors import (
    farthest_adversarial,
    farthest_probabilistic,
    farthest_samp,
    farthest_tour2,
)
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import AdversarialNoise, ExactNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.rng import SeedLike, ensure_rng

DEFAULT_MU_VALUES = (0.0, 0.5, 1.0, 2.0)
DEFAULT_P_VALUES = (0.0, 0.1, 0.3)
METHODS = ("ours", "tour2", "samp")


def _make_oracle(space, noise_kind: str, level: float, seed) -> DistanceQuadrupletOracle:
    if level == 0.0:
        noise = ExactNoise()
    elif noise_kind == "adversarial":
        noise = AdversarialNoise(mu=level)
    else:
        noise = ProbabilisticNoise(p=level, seed=seed)
    return DistanceQuadrupletOracle(space, noise=noise, counter=QueryCounter())


def run(
    n_points: Optional[int] = None,
    dataset: str = "cities",
    mu_values: Sequence[float] = DEFAULT_MU_VALUES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    n_queries: int = 5,
    task: str = "farthest",
    seed: SeedLike = 0,
) -> ExperimentResult:
    """Sweep noise levels and report farthest-point quality for ours / Tour2 / Samp.

    The same routine also powers Figure 9 (nearest neighbour) via
    ``task="nearest"``, since the two figures differ only in the query
    direction.
    """
    from repro.neighbors import (  # local import avoids a cycle in __init__ ordering
        nearest_adversarial,
        nearest_probabilistic,
        nearest_samp,
        nearest_tour2,
    )

    rng = ensure_rng(seed)
    result = ExperimentResult(
        name=f"fig8_{task}_noise" if task == "farthest" else f"fig9_{task}_noise",
        description=f"{task} quality vs synthetic noise level on {dataset}",
        params={
            "n_points": n_points,
            "dataset": dataset,
            "mu_values": list(mu_values),
            "p_values": list(p_values),
            "n_queries": n_queries,
            "seed": seed,
        },
    )
    space = load_dataset(dataset, n_points=n_points, seed=rng.integers(0, 2**31))
    queries = rng.choice(len(space), size=min(n_queries, len(space)), replace=False)
    sweeps = [("adversarial", mu) for mu in mu_values] + [
        ("probabilistic", p) for p in p_values
    ]
    reference = "farthest" if task == "farthest" else "nearest"
    for noise_kind, level in sweeps:
        per_method = {m: [] for m in METHODS}
        for query in queries:
            query = int(query)
            oracle = _make_oracle(space, noise_kind, level, rng.integers(0, 2**31))
            call_seed = rng.integers(0, 2**31)
            if task == "farthest":
                if noise_kind == "adversarial":
                    ours = farthest_adversarial(oracle, query, seed=call_seed)
                else:
                    ours = farthest_probabilistic(oracle, query, space=space, seed=call_seed)
                tour2 = farthest_tour2(oracle, query, seed=call_seed)
                samp = farthest_samp(oracle, query, seed=call_seed)
            else:
                if noise_kind == "adversarial":
                    ours = nearest_adversarial(oracle, query, seed=call_seed)
                else:
                    ours = nearest_probabilistic(oracle, query, space=space, seed=call_seed)
                tour2 = nearest_tour2(oracle, query, seed=call_seed)
                samp = nearest_samp(oracle, query, seed=call_seed)
            per_method["ours"].append(
                normalized_distance(space, query, ours, reference=reference)
            )
            per_method["tour2"].append(
                normalized_distance(space, query, tour2, reference=reference)
            )
            per_method["samp"].append(
                normalized_distance(space, query, samp, reference=reference)
            )
        for method in METHODS:
            result.rows.append(
                {
                    "dataset": dataset,
                    "task": task,
                    "noise": noise_kind,
                    "level": level,
                    "method": method,
                    "normalized_distance": float(np.mean(per_method[method])),
                    "optimum": 1.0,
                    "n_queries_averaged": len(per_method[method]),
                }
            )
    return result


from repro.engine.spec import ExperimentSpec, register

SPEC = register(
    ExperimentSpec(
        name="fig8_farthest_noise",
        runner=run,
        description="Farthest-point quality vs synthetic noise level",
        paper_ref="Figure 8",
        key_columns=("dataset", "task", "noise", "level", "method"),
        quick={"n_points": 200, "n_queries": 2},
        defaults={
            "dataset": "cities",
            "mu_values": list(DEFAULT_MU_VALUES),
            "p_values": list(DEFAULT_P_VALUES),
            "n_queries": 5,
        },
    )
)
