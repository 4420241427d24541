"""Integration tests for the observability layer across subsystems.

Covers the three cross-cutting guarantees the unit tests cannot:

* **trace determinism** — two seeded service runs under a fake injected
  clock write byte-identical JSONL traces (span ids come from the seeded
  generator, timestamps from the fake clock);
* **parallel == serial metrics equivalence** — a multi-process engine sweep
  merges worker registries into the same counters and histogram counts the
  serial run records (the silent-stat-loss fix);
* **end-to-end CLI round trips** — traces written by the service and store
  CLIs summarize cleanly through ``python -m repro.obs``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.engine import plan_sweep, run_sweep
from repro.obs.summary import summarize_trace
from repro.obs.trace import Tracer
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.rng import ensure_rng
from repro.service.core import CrowdOracleService, ServiceConfig
from repro.service.__main__ import main as service_main
from repro.store.__main__ import main as store_main
from repro.store.warehouse import AnswerStore
from repro.obs.__main__ import main as obs_main

GUARD = 30.0  # hard timeout so a wedged event loop fails instead of hanging


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, GUARD))


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Keep the global obs state from leaking between tests."""
    obs.disable()
    yield
    obs.disable()


class FakeClock:
    """Deterministic monotonic clock: advances a fixed step per call."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        now = self.now
        self.now += self.step
        return now


async def _seeded_service_run(seed: int) -> None:
    """One deterministic service workload: a single session, fixed queries.

    One session and ``batch_window=0`` keep the asyncio interleaving (and
    with it the span order) reproducible — the property the byte-identical
    trace assertion needs.
    """
    values = ensure_rng(seed).uniform(0.0, 100.0, size=64)
    backend = ValueComparisonOracle(values, counter=QueryCounter())
    config = ServiceConfig(batch_window=0.0, latency=0.0, seed=seed)
    async with CrowdOracleService(comparison=backend, config=config) as service:
        session = service.open_session()
        rng = ensure_rng(seed)
        for _ in range(10):
            i = rng.integers(0, 64, size=4)
            j = rng.integers(0, 64, size=4)
            await session.compare_batch(i, j)


class TestTraceDeterminism:
    def test_seeded_service_runs_trace_byte_identical(self, tmp_path):
        paths = []
        for run_id in ("a", "b"):
            tracer = Tracer(clock=FakeClock(), seed=42)
            obs.enable(trace=True, tracer=tracer)
            run(_seeded_service_run(seed=7))
            # Metrics are excluded on purpose: histograms record real
            # perf_counter durations, which are not reproducible bytes.
            paths.append(tracer.dump_jsonl(tmp_path / f"trace-{run_id}.jsonl"))
            obs.disable()
        a, b = (p.read_bytes() for p in paths)
        assert a == b
        assert a  # non-empty: the run actually traced spans

    def test_different_seeds_give_different_span_ids(self, tmp_path):
        ids = []
        for seed in (1, 2):
            tracer = Tracer(clock=FakeClock(), seed=seed)
            obs.enable(trace=True, tracer=tracer)
            run(_seeded_service_run(seed=7))
            ids.append([e["span"] for e in tracer.events()])
            obs.disable()
        assert ids[0] != ids[1]
        assert len(ids[0]) == len(ids[1])  # same structure, different ids


class TestEngineMetricsMerge:
    def _sweep_snapshot(self, jobs: int) -> dict:
        registry, _ = obs.enable()
        tasks = plan_sweep(
            ["fig4_user_study"],
            seeds=[0, 1, 2],
            grid={"n_points": [50], "n_buckets": [3], "queries_per_cell": [3]},
        )
        report = run_sweep(tasks, jobs=jobs)
        assert report.n_tasks == 3
        snapshot = registry.snapshot()
        obs.disable()
        return snapshot

    def test_parallel_metrics_match_serial(self):
        serial = self._sweep_snapshot(jobs=1)
        parallel = self._sweep_snapshot(jobs=3)
        # Counters are exactly equal: worker registries merged, none lost.
        assert serial["counters"] == parallel["counters"]
        assert serial["counters"]['engine.tasks{experiment="fig4_user_study"}'] == 3
        # Histogram *counts* are equal; sums are machine timing, not compared.
        serial_counts = {k: v["count"] for k, v in serial["histograms"].items()}
        parallel_counts = {k: v["count"] for k, v in parallel["histograms"].items()}
        assert serial_counts == parallel_counts

    def test_cache_hits_counted(self, tmp_path):
        from repro.engine import ResultCache

        cache = ResultCache(tmp_path)
        registry, _ = obs.enable()
        tasks = plan_sweep(
            ["fig4_user_study"],
            seeds=[0, 1],
            grid={"n_points": [50], "n_buckets": [3], "queries_per_cell": [3]},
        )
        run_sweep(tasks, cache=cache)
        assert registry.counter_value("engine.cache_misses", experiment="fig4_user_study") == 2
        run_sweep(tasks, cache=cache)
        assert registry.counter_value("engine.cache_hits", experiment="fig4_user_study") == 2

    def test_disabled_obs_collects_nothing(self):
        tasks = plan_sweep(
            ["fig4_user_study"],
            seeds=[0],
            grid={"n_points": [50], "n_buckets": [3], "queries_per_cell": [3]},
        )
        report = run_sweep(tasks, jobs=1)
        assert report.n_tasks == 1
        assert obs.get_registry() is None


class TestServiceInstrumentation:
    def test_service_records_flush_causes_and_latency(self):
        async def scenario():
            values = np.linspace(0.0, 10.0, 32)
            backend = ValueComparisonOracle(values, counter=QueryCounter())
            config = ServiceConfig(batch_window=0.0, latency=0.0, max_batch_size=4)
            async with CrowdOracleService(comparison=backend, config=config) as service:
                session = service.open_session()
                await session.compare_batch(np.arange(8), np.arange(8)[::-1])

        registry, _ = obs.enable()
        run(scenario())
        snap = registry.snapshot()
        flushes = sum(
            count
            for key, count in snap["counters"].items()
            if key.startswith("service.flushes")
        )
        assert flushes >= 1
        assert snap["counters"]["service.sessions_opened"] == 1
        assert snap["histograms"]["service.request_seconds"]["count"] == 1
        assert snap["histograms"]["service.batch_size"]["count"] == flushes
        # Oracle counters folded on stop, labelled by backend kind.
        assert snap["counters"]['oracle.total_queries{backend="comparison"}'] == 8

    def test_store_backed_service_counts_hits(self, tmp_path):
        async def scenario():
            values = np.linspace(0.0, 10.0, 32)
            backend = ValueComparisonOracle(values, counter=QueryCounter())
            config = ServiceConfig(batch_window=0.0, latency=0.0)
            store = AnswerStore(tmp_path / "store")
            try:
                async with CrowdOracleService(
                    comparison=backend, config=config, store=store
                ) as service:
                    session = service.open_session()
                    i, j = np.arange(6), np.arange(6)[::-1]
                    await session.compare_batch(i, j)
                    await session.compare_batch(i, j)  # warm repeat: all hits
            finally:
                store.close()

        registry, _ = obs.enable()
        run(scenario())
        assert registry.counter_value("store.lookup_hits") > 0
        appended = sum(
            count
            for key, count in registry.snapshot()["counters"].items()
            if key.startswith("store.appended_votes")
        )
        # Only the cold pass reached the crowd, and mirrored pairs share a
        # canonical key, so 6 queries persist as 3 fresh votes.
        assert appended == 3


class TestCliRoundTrips:
    def test_service_trace_out_summarizes(self, tmp_path, capsys):
        trace = tmp_path / "svc.jsonl"
        code = service_main(
            [
                "--sessions", "2",
                "--queries", "5",
                "--latency-ms", "0",
                "--window-ms", "0",
                "--seed", "3",
                "--metrics",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_service_sessions_opened 2" in out
        assert trace.exists()
        summary = summarize_trace(trace)
        keys = {row["key"] for row in summary["subsystems"]}
        assert "service" in keys
        assert summary["metrics"] is not None
        assert obs_main(["summarize", str(trace)]) == 0
        rendered = capsys.readouterr().out
        assert "service.batch" in rendered
        assert "p95" in rendered

    def test_store_stats_metrics_and_trace(self, tmp_path, capsys):
        store = AnswerStore(tmp_path / "store")
        store.add_votes([1, 2, 3], [True, False, True])
        store.close()
        trace = tmp_path / "store.jsonl"
        code = store_main(
            [
                "stats",
                "--dir", str(tmp_path / "store"),
                "--metrics",
                "--trace-out", str(trace),
            ]
        )
        assert code == 0
        assert "repro_store_open_seconds_count 1" in capsys.readouterr().out
        summary = summarize_trace(trace)
        assert {row["key"] for row in summary["subsystems"]} == {"store"}
