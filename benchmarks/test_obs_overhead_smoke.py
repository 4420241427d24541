"""Benchmark smoke: the disabled obs fast path must be ~free.

The observability layer instruments every subsystem's hot path, so its
*disabled* cost is a standing tax on the whole system.  The contract
(ISSUE 10) is ≤2% overhead on the quick ``store_scale`` cold cell.  There is
no uninstrumented build to diff against, so the bound is established from
two measured quantities instead:

* the per-call cost of the disabled primitives (``obs.inc`` / ``obs.observe``
  / entering a no-op span), measured over a large loop, and
* the number of instrumentation events the cold cell actually fires, counted
  by running the same cell with obs *enabled* and reading the registry's
  ``events`` counter (every ``inc``/``observe``/``gauge`` bumps it) plus the
  traced span count.

``events x per_call_cost`` then bounds the disabled-path overhead from
above — conservatively, since the disabled primitives early-return before
any of the work the enabled counterparts did.
"""

from __future__ import annotations

import time

from repro import obs

MAX_OVERHEAD_FRACTION = 0.02
CALIBRATION_ITERATIONS = 200_000


def _disabled_call_cost() -> float:
    """Measured seconds per disabled obs call (inc + observe + span each loop)."""
    assert obs.disabled()
    loops = CALIBRATION_ITERATIONS
    start = time.perf_counter()
    for _ in range(loops):
        obs.inc("calibration.counter", 1, shard=0)
        obs.observe("calibration.seconds", 0.0)
        with obs.span("calibration.span", subsystem="bench"):
            pass
    elapsed = time.perf_counter() - start
    return elapsed / (loops * 3)


def test_obs_disabled_overhead_under_two_percent(store_scale):
    obs.disable()
    per_call = _disabled_call_cost()

    # Reference run: the quick store_scale cold cell with obs off.
    metrics = store_scale(n_shards=8, group_commit_ms=5.0, n_queries=6000)
    cold_wall = metrics["measured"]["cold_wall_seconds"]

    # Count how many instrumentation events that same cell fires.
    registry, tracer = obs.enable(trace=True, seed=0)
    try:
        store_scale(n_shards=8, group_commit_ms=5.0, n_queries=6000)
        n_events = registry.events + len(tracer.events())
    finally:
        obs.disable()

    overhead = n_events * per_call
    fraction = overhead / cold_wall
    print(
        f"\nobs overhead smoke: {per_call * 1e9:.0f} ns/disabled call x "
        f"{n_events} events = {overhead * 1e3:.3f} ms bound "
        f"vs {cold_wall * 1e3:.1f} ms cold wall ({fraction:.2%})"
    )
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled obs fast path would cost {fraction:.2%} of the store_scale "
        f"cold cell ({n_events} events at {per_call * 1e9:.0f} ns); the "
        f"budget is {MAX_OVERHEAD_FRACTION:.0%}"
    )


def test_obs_disabled_leaves_no_registry_behind(store_scale):
    obs.disable()
    store_scale(n_shards=2, group_commit_ms=5.0, n_queries=500)
    assert obs.get_registry() is None
    assert obs.get_tracer() is None
