"""Demo / load-driver CLI for the crowd-oracle service.

Examples
--------
Sixteen concurrent sessions against a 5 ms simulated crowd, micro-batched::

    python -m repro.service --sessions 16 --queries 100 --latency-ms 5

The same load with batching disabled (one query per round trip), for
comparison::

    python -m repro.service --sessions 16 --queries 100 --latency-ms 5 \\
        --max-batch 1 --window-ms 0

Shared-warehouse mode: sessions issue the same "hot" query stream against a
persistent answer store, so all but the first arrival of each query are
served without crowd work — run it twice and the second run is all hits::

    python -m repro.service --sessions 8 --queries 50 --shared-stream \\
        --store-dir /tmp/repro-store
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro import obs
from repro.exceptions import InvalidParameterError, StoreError
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.rng import ensure_rng
from repro.service.core import CrowdOracleService, ServiceConfig
from repro.service.load import run_comparison_load
from repro.store.warehouse import AnswerStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Drive a simulated crowd-oracle service with concurrent sessions "
            "and report throughput and latency."
        ),
    )
    parser.add_argument("--sessions", type=int, default=16, help="concurrent sessions")
    parser.add_argument("--queries", type=int, default=100, help="queries per session")
    parser.add_argument("--records", type=int, default=1000, help="records in the backend")
    parser.add_argument("--window-ms", type=float, default=5.0, help="batch window (ms)")
    parser.add_argument("--max-batch", type=int, default=256, help="queries per micro-batch")
    parser.add_argument("--max-pending", type=int, default=1024, help="submission queue bound")
    parser.add_argument("--max-inflight", type=int, default=1, help="overlapping batches")
    parser.add_argument(
        "--latency-ms", type=float, default=2.0, help="simulated crowd latency per batch (ms)"
    )
    parser.add_argument(
        "--jitter-ms", type=float, default=0.0, help="uniform extra latency bound (ms)"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for data and query streams")
    parser.add_argument(
        "--store-dir",
        default=None,
        help="directory of a persistent answer warehouse shared by all sessions "
        "(and by successive runs); omit to serve without a store",
    )
    parser.add_argument(
        "--store-shards",
        type=int,
        default=None,
        help="shard count when creating the warehouse; an existing "
        "store's manifest wins (default 8)",
    )
    parser.add_argument(
        "--shared-stream",
        action="store_true",
        help="every session issues the same seeded query stream (hot-content "
        "pattern; maximises cross-session warehouse hits)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="record repro.obs metrics during the run and print the registry "
        "in Prometheus text exposition format afterwards",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record repro.obs spans and write a JSONL trace to PATH "
        "(analyse it with `python -m repro.obs summarize PATH`)",
    )
    return parser


async def _run(args) -> int:
    registry = tracer = None
    if args.metrics or args.trace_out:
        # Span ids derive from the run seed, so a seeded run writes the same
        # id sequence every time (the determinism the trace tests pin down).
        registry, tracer = obs.enable(trace=args.trace_out is not None, seed=args.seed)
    values = ensure_rng(args.seed).uniform(0.0, 100.0, size=args.records)
    backend = ValueComparisonOracle(values, counter=QueryCounter())
    config = ServiceConfig(
        batch_window=args.window_ms / 1000.0,
        max_batch_size=args.max_batch,
        max_pending=args.max_pending,
        max_inflight=args.max_inflight,
        latency=args.latency_ms / 1000.0,
        jitter=args.jitter_ms / 1000.0,
        seed=args.seed,
    )
    store = None
    if args.store_dir is not None:
        store = AnswerStore(args.store_dir, n_shards=args.store_shards)
    try:
        async with CrowdOracleService(
            comparison=backend, config=config, store=store
        ) as service:
            report = await run_comparison_load(
                service,
                n_sessions=args.sessions,
                queries_per_session=args.queries,
                n_records=args.records,
                seed=args.seed,
                shared_stream=args.shared_stream,
            )
    finally:
        if store is not None:
            store.close()
    measured = report["measured"]
    stats = report["service_stats"]
    print(
        f"service: {report['n_queries']} queries from {report['n_sessions']} "
        f"sessions in {measured['wall_seconds']:.3f}s "
        f"({measured['throughput_qps']:.0f} q/s)"
    )
    print(
        f"latency: p50 {measured['latency_p50_ms']:.2f} ms, "
        f"p95 {measured['latency_p95_ms']:.2f} ms "
        f"(simulated crowd {args.latency_ms:.1f} ms/batch)"
    )
    print(
        f"batches: {stats['n_batches']} dispatched, "
        f"mean size {stats['mean_batch_size']:.1f}, "
        f"max pending {stats['max_pending_seen']}, "
        f"max inflight {stats['max_inflight_seen']}"
    )
    for row in report["sessions"]:
        print(
            f"  {row['name']}: {row['total_queries']} queries, "
            f"{row['cached_queries']} hits, {row['charged_queries']} charged "
            f"({row['hit_rate']:.1%} hit rate)"
        )
    if store is not None:
        sstats = store.stats()
        print(
            f"store: {sstats['n_keys']} keys / {sstats['n_votes']} votes at "
            f"{sstats['directory']} ({report['cached_queries']} of "
            f"{report['n_queries']} queries served from the warehouse)"
        )
    print(f"backend: {backend.counter.summary()}")
    if tracer is not None:
        path = tracer.dump_jsonl(
            args.trace_out,
            metrics=registry.snapshot() if registry is not None else None,
        )
        print(f"obs: wrote {len(tracer.events())} trace event(s) to {path}")
    if args.metrics and registry is not None:
        print(registry.exposition(), end="")
    if registry is not None or tracer is not None:
        obs.disable()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_run(args))
    except (InvalidParameterError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
