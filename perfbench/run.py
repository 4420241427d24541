"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload large-space --seed 0 --seconds 12 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics: repeated timed set-ups (median ``setup_s``), one untimed
warm-up run of the workload's fixed job, then timed runs of the job until
``--seconds`` seconds have passed (median ``solve_s``, latency percentiles,
throughput, per-run peak RSS).  Every run's outputs are re-checked
independently; ``ok_frac`` is the share of checks that passed.

``--trace 1`` runs the job once to warm up, once untraced and once with
every layer entry point wrapped in spans (:mod:`perfbench.tracing`), prints
the per-layer metrics, and writes the spans to
``.perfbench-out/trace-<workload>-seed<n>.npz``.

The last line of standard output is the JSON result; progress goes to
standard error.  The benchmark imports the library from ``src/`` next to
this directory and exits non-zero, printing no result, when it is absent.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups timed per run: at least SETUP_MIN_SAMPLES, then more while the
#: run has spent under SETUP_BUDGET_S on them, up to SETUP_MAX_SAMPLES.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 5000
SETUP_BUDGET_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "serve_qps": "queries/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "charged_queries": "count",
    "approx_ratio": "ratio",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

_ALGO = ("maximum", "kcenter", "neighbors", "hierarchical")
_LAYERS = _ALGO + ("oracles", "metric", "store", "service")
PER_LAYER = [
    *(f"{layer}.{m}" for layer in _ALGO
      for m in ("calls", "busy_s", "self_s", "oracle_calls", "queries_per_call")),
    "oracles.compare_batch.calls", "oracles.compare.calls", "oracles.queries",
    "oracles.busy_s", "oracles.self_s", "oracles.cache_hit_ratio",
    "oracles.noise.calls", "oracles.noise.busy_s",
    "metric.pair_distances.calls", "metric.pairs_requested", "metric.distances_from.calls",
    "metric.busy_s", "metric.self_s", "metric.blocks_materialized",
    "metric.distances_computed", "metric.useful_ratio", "metric.spill_reloads",
    "metric.spill_bytes",
    "store.open_s", "store.lookup.calls", "store.lookup.busy_s", "store.append.calls",
    "store.append.busy_s", "store.votes_appended", "store.flush.busy_s", "store.fsyncs",
    "store.appends_per_fsync", "store.hit_ratio", "store.bytes_per_vote", "store.self_s",
    "service.requests", "service.batches", "service.batch_size_mean",
    "service.serve_calls_per_batch", "service.dispatch_busy_s", "service.wait_s",
    "service.self_s",
    *(f"{layer}.share" for layer in _LAYERS),
    "bench.traced_wall_s", "bench.unattributed_s", "bench.trace_overhead_s",
]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", ".share")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


@dataclass
class Rep:
    """One set-up plus one run of the job."""

    setup_s: float
    solve_s: float
    peak_rss_mb: float
    outcome: object
    layer_stats: Optional[Dict[str, float]] = None


def _reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark (VmHWM) for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (with fewer than 100 samples, p99 is the maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def measure_setups(workload) -> List[float]:
    """Time repeated set-ups, each torn down before the next; returns every sample."""
    samples: List[float] = []
    started = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
        len(samples) < SETUP_MAX_SAMPLES and time.perf_counter() - started < SETUP_BUDGET_S
    ):
        workload.before_setup()
        start = time.perf_counter()
        state = workload.setup()
        samples.append(time.perf_counter() - start)
        workload.teardown(state)
    return samples


def timed_rep(workload, tracer=None) -> Rep:
    workload.before_setup()
    gc.collect()
    _reset_peak_rss()
    start = time.perf_counter()
    state = workload.setup()
    setup_done = time.perf_counter()
    if tracer is not None:
        for space in workload.spaces(state):
            tracer.watch_space(space)
    solve_start = time.perf_counter()
    raw = workload.solve(state)
    end = time.perf_counter()
    peak = _peak_rss_mb()
    outcome = workload.check(state, raw)
    stats = workload.layer_stats(state) if tracer is not None else None
    workload.teardown(state)
    return Rep(setup_done - start, end - solve_start, peak, outcome, stats)


def end_to_end_metrics(
    setups: List[float], reps: List[Rep], checked: List[Rep]
) -> Dict[str, float]:
    """Medians over the timed *reps*; ``ok_frac`` counts every *checked* run."""

    def per_rep(fn: Callable[[Rep], float]) -> float:
        return statistics.median(fn(rep) for rep in reps)

    attempted = sum(rep.outcome.attempted for rep in checked)
    failed = sum(rep.outcome.failed for rep in checked)
    return {
        "setup_s": statistics.median(setups),
        "solve_s": per_rep(lambda r: r.solve_s),
        "serve_qps": per_rep(lambda r: r.outcome.queries / (r.outcome.serve_wall or r.solve_s)),
        "serve_p50_ms": per_rep(lambda r: 1e3 * _percentile(r.outcome.latencies, 50)),
        "serve_p99_ms": per_rep(lambda r: 1e3 * _percentile(r.outcome.latencies, 99)),
        "charged_queries": per_rep(lambda r: r.outcome.charged),
        "approx_ratio": per_rep(lambda r: max(r.outcome.ratios)),
        "ok_frac": 1.0 - failed / max(1, attempted),
        "peak_rss_mb": per_rep(lambda r: r.peak_rss_mb),
    }


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    workdir: Optional[Path] = None,
    tamper=None,
) -> dict:
    """Run one workload; returns the result object the command prints."""
    from perfbench.tracing import Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS

    workdir = Path(workdir) if workdir is not None else ROOT / ".perfbench-out"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Spill files, warehouse copies and other temporaries stay inside the
    # work directory and are removed when the run ends; only traces remain.
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(scratch)
    try:
        workload = WORKLOADS[workload_name](seed, scale, scratch, tamper)
        workload.prepare()
        if not trace:
            setups = measure_setups(workload)
        # The first run of the job warms caches and the allocator; untimed.
        checked = [timed_rep(workload)]
        if trace:
            # The untraced and the traced run are the same run of the job.
            workload.rep = 1
            plain = timed_rep(workload)
            with Tracer() as tracer:
                traced = timed_rep(workload, tracer)
            checked += [plain, traced]
            region = traced.setup_s + traced.solve_s
            values = layer_metrics(tracer, region, traced.layer_stats)
            values["bench.trace_overhead_s"] = traced.solve_s - plain.solve_s
            tracer.save(workdir / f"trace-{workload_name}-seed{seed}.npz")
            metrics = {name: (values[name], per_layer_unit(name)) for name in PER_LAYER}
        else:
            reps: List[Rep] = []
            started = time.perf_counter()
            while not reps or time.perf_counter() - started < seconds:
                workload.rep = len(reps) + 1
                reps.append(timed_rep(workload))
            checked += reps
            values = end_to_end_metrics(setups, reps, checked)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        solves = [rep.solve_s for rep in checked]
        _log(f"{workload_name} seed={seed} solve_s per run: {[round(x, 3) for x in solves]}")
    finally:
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(rep.outcome.attempted for rep in checked)
    failed = sum(rep.outcome.failed for rep in checked)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
