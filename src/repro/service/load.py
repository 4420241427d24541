"""Load driver: many concurrent sessions hammering one service.

Shared by the ``python -m repro.service`` demo CLI and the service and
warehouse tests.  Each simulated session is an
asyncio task that issues one comparison query at a time — the
algorithm-shaped access pattern: submit, await the answer, decide the next
query — so the only way the service achieves throughput beyond
``1 / latency`` per session is by coalescing the concurrent sessions'
queries into shared micro-batches.

Query streams are seeded per session via
:func:`repro.rng.derive_task_seeds`, so the set of queries (and, over an
exact backend, the answers) is reproducible regardless of how the event
loop interleaves the sessions.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.rng import derive_task_seeds, ensure_rng
from repro.service.core import CrowdOracleService

#: Percentiles reported for per-query latency.
LATENCY_PERCENTILES = (50, 95)


async def run_comparison_load(
    service: CrowdOracleService,
    n_sessions: int,
    queries_per_session: int,
    n_records: int,
    seed: int = 0,
    shared_stream: bool = False,
) -> Dict[str, Any]:
    """Drive *n_sessions* concurrent sessions of single comparison queries.

    Returns a dict with deterministic fields (query counts and, over a
    deterministic backend, the Yes-answer checksum), a per-session
    ``sessions`` list carrying each session counter's total/hit/charged
    split, plus ``measured`` wall-clock numbers: total seconds,
    queries/second, and per-query latency percentiles in milliseconds.

    ``shared_stream=True`` gives every session the *same* seeded query
    stream instead of a per-session derived one — the "hot content" access
    pattern (many users asking the same trending comparisons) that a shared
    answer warehouse turns into cross-session cache hits.
    """
    if n_sessions < 1 or queries_per_session < 1:
        raise InvalidParameterError(
            "need at least one session and one query per session"
        )
    if n_records < 2:
        raise InvalidParameterError("need at least two records to compare")
    loop = asyncio.get_running_loop()
    session_seeds = derive_task_seeds(seed, n_sessions)
    latencies: List[float] = []

    async def one_session(session_seed: int) -> Dict[str, Any]:
        rng = ensure_rng(seed if shared_stream else session_seed)
        session = service.open_session()
        yes = 0
        for _ in range(queries_per_session):
            i = int(rng.integers(0, n_records))
            j = int(rng.integers(0, n_records - 1))
            if j >= i:  # distinct pair, uniformly
                j += 1
            started = loop.time()
            answer = await session.compare(i, j)
            latencies.append(loop.time() - started)
            yes += int(answer)
        counter = session.counter
        return {
            "name": session.name,
            "yes": yes,
            "total_queries": counter.total_queries,
            "cached_queries": counter.cached_queries,
            "charged_queries": counter.charged_queries,
            "hit_rate": counter.hit_rate,
        }

    started = loop.time()
    per_session = await asyncio.gather(
        *(one_session(s) for s in session_seeds)
    )
    wall = loop.time() - started
    yes_total = int(sum(row["yes"] for row in per_session))
    n_queries = n_sessions * queries_per_session
    total_cached = sum(row["cached_queries"] for row in per_session)
    total_charged = sum(row["charged_queries"] for row in per_session)
    lat_ms = np.asarray(latencies) * 1000.0
    return {
        "n_sessions": n_sessions,
        "queries_per_session": queries_per_session,
        "n_queries": n_queries,
        "yes_answers": yes_total,
        "shared_stream": bool(shared_stream),
        "sessions": [
            {k: v for k, v in row.items() if k != "yes"} for row in per_session
        ],
        "cached_queries": int(total_cached),
        "charged_queries": int(total_charged),
        "service_stats": service.stats.as_dict(),
        "measured": {
            "wall_seconds": wall,
            "throughput_qps": n_queries / max(wall, 1e-9),
            **{
                f"latency_p{p}_ms": float(np.percentile(lat_ms, p))
                for p in LATENCY_PERCENTILES
            },
        },
    }
