"""Benchmark smoke: incremental maintenance versus full batch recomputes.

Plays seeded edit streams through the differential-testing drivers
(:mod:`repro.incremental.difftest`), so every number below is backed by a
bit-identity assertion at every checked step, and asserts the headline
claim: at n = 5000 the amortized per-update cost of the incremental
k-center maintainer beats a full recompute by >= 10x on the deterministic
cost ledger.  Deterministic ratios are asserted; wall-clock figures are
printed so CI logs double as a perf record without flaking on slow runners.
"""

from __future__ import annotations

from repro.incremental.difftest import (
    difftest_count_max,
    difftest_kcenter,
    difftest_linkage,
)
from repro.incremental.edits import generate_edit_stream

#: Every stream is 200 balanced edits, checked against a batch recompute
#: every 25 steps; the metric algorithms run on 8-dimensional records.
N_OPS = 200
CHECK_EVERY = 25
DIMENSION = 8

#: The ISSUE's acceptance bar for the n = 5000 cell, on the deterministic
#: charged-cost ledger (distance rows / oracle queries, not wall clock).
MIN_ACCEPTANCE_RATIO = 10.0


def test_incremental_kcenter_acceptance_cell():
    stream = generate_edit_stream(5000, N_OPS, seed=0, dimension=DIMENSION)
    metrics = difftest_kcenter(stream, k=8, backend="lazy", check_every=CHECK_EVERY)
    measured = metrics["measured"]
    print(
        "\nincremental_kcenter smoke: "
        f"cost ratio {metrics['cost_ratio']:.1f}x, "
        f"{metrics['inc_cost_per_update']:.0f} rows/update vs "
        f"{metrics['batch_cost_per_recompute']:.0f} rows/recompute, "
        f"{metrics['n_fallbacks']} fallbacks, "
        f"measured speedup {measured['speedup_per_update']:.1f}x"
    )
    assert metrics["outputs_identical"], "incremental k-center diverged from batch"
    assert metrics["cost_ratio"] > MIN_ACCEPTANCE_RATIO, (
        f"amortized per-update cost ratio {metrics['cost_ratio']:.1f}x fell "
        f"below the {MIN_ACCEPTANCE_RATIO:.0f}x acceptance bar at n=5000"
    )


def test_incremental_count_max_smoke():
    stream = generate_edit_stream(150, N_OPS, seed=0)
    metrics = difftest_count_max(stream, seed=0, noise="hashed", check_every=CHECK_EVERY)
    assert metrics["outputs_identical"]
    assert metrics["inc_charged"] < metrics["batch_charged"]
    assert metrics["cost_ratio"] > MIN_ACCEPTANCE_RATIO


def test_incremental_linkage_smoke():
    stream = generate_edit_stream(60, N_OPS, seed=0, dimension=DIMENSION)
    metrics = difftest_linkage(stream, check_every=CHECK_EVERY)
    assert metrics["outputs_identical"]
    assert metrics["inc_evals"] < metrics["batch_evals"]
    assert metrics["cost_ratio"] > MIN_ACCEPTANCE_RATIO
