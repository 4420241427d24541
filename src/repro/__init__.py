"""repro: robust algorithms using a noisy comparison oracle.

A reproduction of "How to Design Robust Algorithms using Noisy Comparison
Oracle" (Addanki, Galhotra, Saha — PVLDB 14(9), 2021).  The library provides:

* a metric substrate — including a lazy, bounded-memory distance backend for
  n = 50,000-scale spaces — and noisy comparison / quadruplet oracles
  (adversarial and persistent-probabilistic noise models),
* robust maximum / minimum finding, farthest and nearest-neighbour search,
* robust greedy k-center clustering under both noise models,
* robust single / complete-linkage agglomerative hierarchical clustering,
* the Tour2 / Samp / Oq baselines of the paper's evaluation,
* synthetic stand-ins for the paper's datasets, evaluation metrics, and an
  experiment harness regenerating every table and figure,
* an experiment engine (:mod:`repro.engine`) that sweeps every experiment
  over seed/parameter grids across worker processes with on-disk result
  caching (``python -m repro.experiments sweep --quick --seeds 4 --jobs 4``),
* an asyncio crowd-oracle service (:mod:`repro.service`) that micro-batches
  the queries of many concurrent algorithm sessions onto the batched oracle
  stack, with per-session budgets, simulated crowd latency and backpressure
  (``python -m repro.service`` is a load-driver demo),
* a persistent crowd-answer warehouse (:mod:`repro.store`) that deduplicates
  queries across sessions and runs (``python -m repro.store`` is the
  maintenance CLI).

Quickstart
----------
>>> from repro import datasets, oracles, kcenter
>>> space = datasets.load_dataset("cities", n_points=200, seed=0)
>>> oracle = oracles.DistanceQuadrupletOracle(
...     space, noise=oracles.AdversarialNoise(mu=0.5))
>>> result = kcenter.kcenter_adversarial(oracle, k=5, seed=0)
>>> len(result.centers)
5
"""

from repro import (
    baselines,
    datasets,
    estimation,
    evaluation,
    hierarchical,
    kcenter,
    maximum,
    metric,
    neighbors,
    oracles,
    service,
    store,
)
from repro.exceptions import (
    ClusteringError,
    DatasetError,
    EmptyInputError,
    InvalidParameterError,
    NotAMetricError,
    QueryBudgetExceededError,
    ReproError,
    StoreCorruptionError,
    StoreError,
)

__version__ = "1.0.0"

__all__ = [
    "metric",
    "oracles",
    "service",
    "store",
    "maximum",
    "neighbors",
    "kcenter",
    "hierarchical",
    "baselines",
    "datasets",
    "estimation",
    "evaluation",
    "ReproError",
    "InvalidParameterError",
    "EmptyInputError",
    "QueryBudgetExceededError",
    "StoreError",
    "StoreCorruptionError",
    "NotAMetricError",
    "DatasetError",
    "ClusteringError",
    "__version__",
]
