"""Benchmark smoke: the disk-spill metric backend at beyond-lazy scale.

Runs greedy k-center and Count-Max on ``backend="disk"`` and asserts the
properties the storage layer is accountable for:

* **Reloads happen** — evicted blocks and stored rows must be *reloaded*
  from the memory-mapped spill files, not recomputed; the backend's
  ``reloads`` counter is the evidence.
* **Memory stays bounded** — peak traced allocation and resident set stay
  under fixed ceilings that a dense O(n^2) matrix (320 GB at n = 200,000)
  or an unbounded cache could not meet.
* **Values are unchanged** — the seeded metrics agree with the in-memory
  lazy backend at the same n (bit-identity, not approximation).

The million-point cells are marked ``slow`` and excluded from the default
(tier-1) run; ``pytest -m slow benchmarks`` exercises them.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Dict

import pytest

from repro.kcenter.greedy_exact import greedy_kcenter_exact
from repro.kcenter.objective import kcenter_objective
from repro.maximum.count_max import count_max
from repro.metric.space import PointCloudSpace
from repro.oracles.base import distance_comparison_view
from repro.oracles.counting import QueryCounter
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.rng import ensure_rng, sample_without_replacement

#: Dimension of the uniform clouds the cells run on.
DIMENSION = 8

#: Fixed memory ceilings for the n = 200,000 smoke cell.  The workload's
#: honest footprint is ~50 MB traced / ~120 MB resident; the ceilings leave
#: headroom for interpreter noise while staying far below anything an
#: unbounded backend could achieve.
SMOKE_N = 200_000
MAX_PEAK_TRACED_MB = 256.0
MAX_VMRSS_MB = 1024.0


def _vmrss_mb() -> float:
    """Current resident set size in MB (Linux /proc)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS"):
                return float(line.split()[1]) / 1024.0
    return 0.0  # pragma: no cover - /proc always has VmRSS on Linux


def run_greedy_kcenter(n: int, backend: str, k: int, seed: int) -> Dict[str, Any]:
    """Greedy k-center plus one objective evaluation on a seeded uniform cloud."""
    space = PointCloudSpace(
        ensure_rng(seed).uniform(0.0, 1.0, size=(n, DIMENSION)), backend=backend
    )
    result = greedy_kcenter_exact(space, k=k, seed=seed)
    objective = kcenter_objective(space, result)
    stats = space.backend_stats()
    return {
        "k": result.k,
        "objective": objective,
        "backend_reloads": stats.get("reloads", 0),
        "backend_rows_stored": stats.get("rows_stored", 0),
        "backend_spill_bytes": stats.get("spill_bytes", 0),
    }


def run_count_max(n: int, backend: str, seed: int) -> Dict[str, Any]:
    """Count-Max "farthest from record 0" over a seeded record sample.

    The sample holds 256 records, stepping up to 1024 at n >= 500,000 so
    the million-point cell pushes enough constant-anchor pairs per batch to
    cross the disk backend's row threshold (the reload path under test).
    """
    space = PointCloudSpace(
        ensure_rng(seed).uniform(0.0, 1.0, size=(n, DIMENSION)), backend=backend
    )
    counter = QueryCounter()
    oracle = DistanceQuadrupletOracle(space, counter=counter, cache_answers=False)
    view = distance_comparison_view(oracle, query=0)
    m = min(1024 if n >= 500_000 else 256, n - 1)
    items = (sample_without_replacement(ensure_rng(seed), n - 1, m) + 1).tolist()
    winner = count_max(items, view, seed=seed)
    return {
        "sample_size": m,
        "queries": counter.charged_queries,
        "winner_is_true_farthest": bool(winner == space.farthest_from(0, items)),
        "backend_reloads": space.backend_stats().get("reloads", 0),
    }


def test_disk_backend_smoke():
    tracemalloc.start()
    try:
        metrics = run_greedy_kcenter(n=SMOKE_N, backend="disk", k=8, seed=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    rss_mb = _vmrss_mb()
    reloads = metrics["backend_reloads"]
    print(
        f"\ndisk smoke (n={SMOKE_N:,}): {reloads} reloads, "
        f"{metrics['backend_rows_stored']} rows stored, "
        f"{metrics['backend_spill_bytes'] / 1e6:.1f} MB spilled, "
        f"peak traced {peak_mb:.1f} MB, VmRSS {rss_mb:.1f} MB"
    )
    assert reloads > 0, "disk backend never reloaded spilled state"
    assert peak_mb < MAX_PEAK_TRACED_MB, (
        f"peak traced {peak_mb:.1f} MB exceeds the {MAX_PEAK_TRACED_MB} MB ceiling"
    )
    assert rss_mb < MAX_VMRSS_MB, (
        f"VmRSS {rss_mb:.1f} MB exceeds the {MAX_VMRSS_MB} MB ceiling"
    )


def test_disk_backend_smoke_matches_lazy_metrics():
    # Same seeded cell on both bounded backends: every deterministic metric
    # must agree bit for bit (the scaling artifact's cross-backend contract).
    lazy = run_greedy_kcenter(n=20_000, backend="lazy", k=8, seed=0)
    disk = run_greedy_kcenter(n=20_000, backend="disk", k=8, seed=0)
    assert disk["objective"] == lazy["objective"]
    assert disk["k"] == lazy["k"]
    lazy_cm = run_count_max(n=20_000, backend="lazy", seed=0)
    disk_cm = run_count_max(n=20_000, backend="disk", seed=0)
    assert disk_cm["queries"] == lazy_cm["queries"]
    assert disk_cm["winner_is_true_farthest"] == lazy_cm["winner_is_true_farthest"]


@pytest.mark.slow
def test_disk_backend_million_point_cells():
    # The full-scale acceptance cells: one million points, bounded memory,
    # reload-not-recompute evidence in the metrics.
    tracemalloc.start()
    try:
        kcenter = run_greedy_kcenter(n=1_000_000, backend="disk", k=8, seed=0)
        count = run_count_max(n=1_000_000, backend="disk", seed=0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    print(
        f"\ndisk 1M cells: kcenter {kcenter['backend_reloads']} reloads / "
        f"objective {kcenter['objective']:.6f}, count_max "
        f"{count['backend_reloads']} reloads / sample {count['sample_size']}, "
        f"peak traced {peak_mb:.1f} MB"
    )
    assert kcenter["backend_reloads"] > 0
    assert count["backend_reloads"] > 0
    assert count["sample_size"] == 1024  # the adaptive step-up at n >= 500k
    assert peak_mb < 2048.0
