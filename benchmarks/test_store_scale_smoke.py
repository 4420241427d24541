"""Benchmark smoke: the sharded answer warehouse versus the direct oracle.

Runs the ``store_scale`` workload (``run_store_scale`` in
``benchmarks/conftest.py``) at CI scale and asserts the properties the
storage rework is accountable for:

* **Warm beats direct** — once the store holds every answer, serving the
  stream from the in-memory read index must be strictly faster than asking
  the (noise-simulating) oracle itself.  This is the acceptance bar for the
  warehouse being a cache worth having.
* **Cold throughput floor** — appending every distinct query through the
  group-commit WAL must clear a floor that the pre-sharding store (~0.7k
  qps with per-vote fsync) could not approach.  The floor is deliberately
  far below the measured steady state (tens of thousands of qps) so a slow
  CI runner does not flake the build.
* **Determinism** — direct, cold and warm phases answer identically
  (the cold-store determinism contract).

Measured figures are printed so CI logs double as a perf record.
"""

from __future__ import annotations

#: Conservative floors for shared CI runners; the printed figures record
#: the real steady-state numbers (tens-of-thousands cold qps).
MIN_COLD_QPS = 7_000.0  # ~10x the pre-sharding ~700 qps store
MIN_WARM_VS_DIRECT = 1.0


def test_store_scale_smoke(store_scale):
    metrics = store_scale(n_shards=8, group_commit_ms=5.0, n_queries=6000)
    measured = metrics["measured"]
    print(
        "\nstore_scale smoke: "
        f"cold {measured['cold_qps']:,.0f} qps, "
        f"warm {measured['warm_qps']:,.0f} qps, "
        f"direct {measured['direct_qps']:,.0f} qps, "
        f"open {measured['open_seconds'] * 1000:.1f} ms, "
        f"{measured['appends_per_fsync']:.0f} appends/fsync"
    )
    assert metrics["outputs_identical"], "cold/warm answers diverged from direct"
    assert metrics["warm_charged"] == 0, "warm phase consulted the inner oracle"
    assert measured["warm_vs_direct"] > MIN_WARM_VS_DIRECT, (
        f"warm path ({measured['warm_qps']:,.0f} qps) must beat the direct "
        f"oracle ({measured['direct_qps']:,.0f} qps)"
    )
    assert measured["cold_qps"] > MIN_COLD_QPS, (
        f"cold append throughput {measured['cold_qps']:,.0f} qps fell below "
        f"the {MIN_COLD_QPS:,.0f} qps floor"
    )


def test_store_scale_always_fsync_still_clears_the_old_store(store_scale):
    # Even with group commit disabled (one fsync per append batch) the
    # batched WAL write must beat the old per-vote store by a wide margin.
    metrics = store_scale(n_shards=1, group_commit_ms=0.0, n_queries=4000)
    assert metrics["sync_mode"] == "always"
    assert metrics["outputs_identical"]
    assert metrics["measured"]["cold_qps"] > MIN_COLD_QPS
