"""Unified observability layer: metrics registry + span tracer + exporters.

``repro.obs`` gives every subsystem one instrumentation substrate.  Call
sites use the module-level helpers (:func:`inc`, :func:`observe`,
:func:`span`, :func:`timer`, ...), which are **no-ops until enabled**: the
module holds a global registry/tracer pair that defaults to ``None``, and
each helper early-returns (or hands back a shared do-nothing context
manager) when observation is off.  That keeps the disabled-path cost to a
single attribute check per call site, which the overhead smoke test in
``benchmarks/test_obs_overhead_smoke.py`` bounds at ≤2% of the quick
``store_scale`` cold cell.

Typical use::

    from repro import obs

    registry, tracer = obs.enable(trace=True, seed=42)
    ... run a workload ...
    print(registry.exposition())
    tracer.dump_jsonl("trace.jsonl", metrics=registry.snapshot())
    obs.disable()

Worker processes (or any caller wanting an isolated delta) wrap their work
in :func:`capture`, which swaps in a fresh registry and restores the
previous one on exit; the captured snapshot is then folded back into the
parent via :func:`merge_snapshot`.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from .metrics import (  # noqa: F401 (re-exported)
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    parse_key,
    render_key,
)
from .trace import Span, Tracer, load_trace  # noqa: F401 (re-exported)

_REGISTRY: Optional[MetricsRegistry] = None
_TRACER: Optional[Tracer] = None


class _NoopContext:
    """Shared do-nothing context manager returned by disabled span()/timer()."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_CM = _NoopContext()


def enabled() -> bool:
    """True when a global registry is installed (metrics are being recorded)."""
    return _REGISTRY is not None


def disabled() -> bool:
    """True when observation is off (the no-op fast path is active)."""
    return _REGISTRY is None


def enable(
    metrics: bool = True,
    trace: bool = False,
    clock=None,
    seed: Any = 0,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[Optional[MetricsRegistry], Optional[Tracer]]:
    """Install a global registry (and optionally a tracer); return both.

    Pass an existing *registry*/*tracer* to install those instead of fresh
    ones; *clock* and *seed* configure the tracer (see :class:`Tracer`).
    """
    global _REGISTRY, _TRACER
    if metrics or registry is not None:
        _REGISTRY = registry if registry is not None else MetricsRegistry()
    if trace or tracer is not None:
        _TRACER = tracer if tracer is not None else Tracer(clock=clock, seed=seed)
    return _REGISTRY, _TRACER


def disable() -> None:
    """Remove the global registry and tracer; helpers become no-ops again."""
    global _REGISTRY, _TRACER
    _REGISTRY = None
    _TRACER = None


def get_registry() -> Optional[MetricsRegistry]:
    """Return the active global registry, or ``None`` when disabled."""
    return _REGISTRY


def get_tracer() -> Optional[Tracer]:
    """Return the active global tracer, or ``None`` when tracing is off."""
    return _TRACER


def inc(name: str, value: int = 1, **labels: Any) -> None:
    """Increment a counter on the global registry (no-op when disabled)."""
    reg = _REGISTRY
    if reg is not None:
        reg.inc(name, value, **labels)


def observe(
    name: str,
    value: float,
    buckets: Optional[Sequence[float]] = None,
    **labels: Any,
) -> None:
    """Record a histogram observation (no-op when disabled)."""
    reg = _REGISTRY
    if reg is not None:
        reg.observe(name, value, buckets=buckets, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    """Set a gauge (no-op when disabled)."""
    reg = _REGISTRY
    if reg is not None:
        reg.gauge_set(name, value, **labels)


def gauge_max(name: str, value: float, **labels: Any) -> None:
    """Raise a high-water-mark gauge (no-op when disabled)."""
    reg = _REGISTRY
    if reg is not None:
        reg.gauge_max(name, value, **labels)


def span(name: str, subsystem: str = "app", **tags: Any):
    """Open a trace span, or the shared no-op when tracing is off."""
    tracer = _TRACER
    if tracer is None:
        return _NOOP_CM
    return tracer.span(name, subsystem, **tags)


@contextlib.contextmanager
def _timer_cm(name: str, labels: Dict[str, Any]):
    start = time.perf_counter()
    try:
        yield
    finally:
        observe(name, time.perf_counter() - start, **labels)


def timer(name: str, **labels: Any):
    """Time a block into the histogram *name* (no-op when disabled)."""
    if _REGISTRY is None:
        return _NOOP_CM
    return _timer_cm(name, labels)


@contextlib.contextmanager
def capture():
    """Swap in a fresh registry for the duration of the block; yield it.

    Used by engine worker processes (or any caller wanting a delta) to isolate
    their metrics: the caller snapshots the yielded registry and merges it
    into the parent with :func:`merge_snapshot`.  The previous registry is
    restored on exit regardless of errors.
    """
    global _REGISTRY
    previous = _REGISTRY
    fresh = MetricsRegistry()
    _REGISTRY = fresh
    try:
        yield fresh
    finally:
        _REGISTRY = previous


def merge_snapshot(snapshot: Mapping[str, Any]) -> None:
    """Fold a captured snapshot into the global registry (no-op if disabled)."""
    reg = _REGISTRY
    if reg is not None:
        reg.merge(snapshot)
