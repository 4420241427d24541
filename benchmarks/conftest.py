"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper at a reduced,
laptop-friendly scale and asserts the qualitative *shape* of the result
(who wins, by roughly what factor) rather than absolute numbers.  Run with::

    pytest benchmarks/ --benchmark-only

The printed ``extra_info`` of each benchmark contains the reproduced rows.
"""

from __future__ import annotations

import tempfile
import time
from typing import Any, Dict

import numpy as np
import pytest

from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import ProbabilisticNoise
from repro.rng import ensure_rng
from repro.store.oracle import StoredComparisonOracle
from repro.store.warehouse import AnswerStore

#: Scale knobs shared by all benchmarks.  Kept deliberately small so the whole
#: suite finishes in a few minutes; raise them for closer-to-paper runs.
BENCH_SETTINGS = {
    "n_points_small": 120,
    "n_points_medium": 200,
    "n_queries": 3,
    "seed": 7,
}


@pytest.fixture(scope="session")
def bench_settings():
    return dict(BENCH_SETTINGS)


def run_store_scale(
    n_shards: int,
    group_commit_ms: float,
    n_queries: int,
    n_records: int = 512,
    chunk: int = 2048,
    noise_p: float = 0.1,
    seed: int = 0,
) -> Dict[str, Any]:
    """Raw warehouse throughput versus the direct oracle path.

    A :class:`~repro.store.oracle.StoredComparisonOracle` is driven
    synchronously with ``chunk``-sized ``compare_batch`` calls (no event
    loop, no sleeps) over one uniform query stream, in four timed phases:

    * **direct** — the inner oracle alone, persistent probabilistic noise,
      no store;
    * **cold** — an empty store; every distinct query is appended and
      group-committed, ending with a ``flush()`` inside the clock;
    * **open** — closing and reopening the store (WAL replay);
    * **warm** — the reopened store serves the whole stream from its
      in-memory index without consulting the inner oracle.

    ``group_commit_ms = 0`` means ``sync="always"`` (one fsync per append
    batch); positive values use ``sync="group"`` with that window.  Every
    phase shares one noise seed, so the three serving phases must answer
    identically (``outputs_identical``).  Wall-clock figures land under
    ``"measured"``.
    """
    rng = ensure_rng(seed)
    values = rng.uniform(0.0, 100.0, size=n_records)
    left = rng.integers(0, n_records, size=n_queries)
    right = rng.integers(0, n_records, size=n_queries)
    clash = left == right
    # Self-comparisons are answered without touching the store; nudge them
    # off the diagonal so every query exercises the serving path.
    right[clash] = (left[clash] + 1) % n_records

    def make_backend() -> ValueComparisonOracle:
        # cache_answers=False keeps the store the only dedup layer.
        return ValueComparisonOracle(
            values,
            noise=ProbabilisticNoise(p=noise_p, seed=seed),
            counter=QueryCounter(),
            cache_answers=False,
        )

    def drive(compare_batch) -> tuple:
        yes = 0
        start = time.perf_counter()
        for lo in range(0, n_queries, chunk):
            out = compare_batch(left[lo : lo + chunk], right[lo : lo + chunk])
            yes += int(np.count_nonzero(out))
        return yes, time.perf_counter() - start

    sync_mode = "always" if group_commit_ms <= 0 else "group"

    def open_store(directory: str) -> AnswerStore:
        return AnswerStore(
            directory,
            n_shards=n_shards,
            sync=sync_mode,
            group_commit_window=max(group_commit_ms, 0.0) / 1000.0,
        )

    with tempfile.TemporaryDirectory(prefix="repro-store-scale-") as tmp:
        direct_yes, direct_wall = drive(make_backend().compare_batch)

        store = open_store(tmp)
        cold_oracle = StoredComparisonOracle(make_backend(), store)
        cold_start = time.perf_counter()
        cold_yes, _ = drive(cold_oracle.compare_batch)
        store.flush()
        cold_wall = time.perf_counter() - cold_start
        stats = store.stats()
        store.close()

        open_start = time.perf_counter()
        store = open_store(tmp)
        open_seconds = time.perf_counter() - open_start
        warm_oracle = StoredComparisonOracle(make_backend(), store)
        warm_yes, warm_wall = drive(warm_oracle.compare_batch)
        store.close()

    direct_qps = n_queries / max(direct_wall, 1e-9)
    warm_qps = n_queries / max(warm_wall, 1e-9)
    return {
        "sync_mode": sync_mode,
        "warm_charged": warm_oracle.counter.charged_queries,
        "outputs_identical": bool(direct_yes == cold_yes == warm_yes),
        "measured": {
            "cold_wall_seconds": cold_wall,
            "open_seconds": open_seconds,
            "direct_qps": direct_qps,
            "cold_qps": n_queries / max(cold_wall, 1e-9),
            "warm_qps": warm_qps,
            "warm_vs_direct": warm_qps / max(direct_qps, 1e-9),
            "appends_per_fsync": stats["n_appends"] / max(stats["n_fsyncs"], 1),
        },
    }


@pytest.fixture(scope="session")
def store_scale():
    """:func:`run_store_scale`, shared by the warehouse and obs-overhead gates."""
    return run_store_scale
