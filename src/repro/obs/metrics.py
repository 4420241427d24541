"""Lock-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregation half of :mod:`repro.obs`.  Every metric is
keyed by a *rendered* name — ``name`` alone or ``name{k="v",...}`` with
labels sorted — so snapshots are plain JSON-safe dicts and merging the
registries of engine worker processes back into the parent is a string-keyed
dict walk: counters add, gauges take the max, histograms add bucket-wise.

Histograms use fixed bucket boundaries chosen at first observation (callers
may pass their own), which is what makes the bucket-wise merge exact: two
snapshots of the same metric always share boundaries.

All mutating operations take an internal :class:`threading.Lock`, so the
asyncio service's daemon thread and the main thread can both record into the
same registry.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InvalidParameterError

# Log-spaced latency buckets (seconds): 10us .. 10s.  Wide enough for both a
# single fsync and a whole experiment task.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Buckets for small-integer size distributions (batch sizes, queue depths).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

_KEY_RE = re.compile(r'^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$')
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def render_key(name: str, labels: Mapping[str, Any]) -> str:
    """Render ``name`` + ``labels`` into the registry's canonical string key."""
    if not labels:
        return name
    parts = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{parts}}}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a rendered key back into ``(name, labels)``."""
    m = _KEY_RE.match(key)
    if m is None:  # pragma: no cover - render_key output always matches
        return key, {}
    labels_src = m.group("labels")
    labels: Dict[str, str] = {}
    if labels_src:
        for lk, lv in _LABEL_RE.findall(labels_src):
            labels[lk] = lv.replace('\\"', '"').replace("\\\\", "\\")
    return m.group("name"), labels


class Histogram:
    """Fixed-bucket histogram: cumulative-style counts plus sum and count.

    ``buckets`` are the upper bounds of each bin (an implicit ``+Inf`` bin is
    appended); ``counts`` are per-bin (not cumulative) so bucket-wise merge is
    plain elementwise addition.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise InvalidParameterError(
                f"histogram buckets must be strictly increasing, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Add *other*'s bins into this histogram (boundaries must match)."""
        if other.buckets != self.buckets:
            raise InvalidParameterError(
                "cannot merge histograms with different bucket boundaries"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0..1) from bucket boundaries.

        Returns the upper bound of the bucket containing the target rank;
        observations in the overflow bin report the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target and c:
                return self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
        return self.buckets[-1]

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(payload["buckets"])
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(hist.counts):
            raise InvalidParameterError("histogram counts length does not match buckets")
        hist.counts = counts
        hist.sum = float(payload["sum"])
        hist.count = int(payload["count"])
        return hist


class MetricsRegistry:
    """Thread-safe registry of counters, gauges, and histograms.

    ``events`` counts every recording call (used by the overhead smoke test
    to bound instrumentation cost without an uninstrumented baseline).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Histogram] = {}
        self.events = 0

    def inc(self, name: str, value: int = 1, **labels: Any) -> None:
        """Add *value* to the counter *name* (+labels)."""
        key = render_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value
            self.events += 1

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge *name* to *value*."""
        key = render_key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)
            self.events += 1

    def gauge_max(self, name: str, value: float, **labels: Any) -> None:
        """Raise the gauge *name* to *value* if larger (high-water mark)."""
        key = render_key(name, labels)
        with self._lock:
            prev = self._gauges.get(key)
            if prev is None or value > prev:
                self._gauges[key] = float(value)
            self.events += 1

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> None:
        """Record *value* into the histogram *name* (+labels).

        *buckets* is honoured only when the histogram is first created; later
        observations reuse the existing boundaries.
        """
        key = render_key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = Histogram(buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS)
                self._hists[key] = hist
            hist.observe(value)
            self.events += 1

    def counter_value(self, name: str, **labels: Any) -> int:
        """Return the current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(render_key(name, labels), 0)

    def snapshot(self) -> Dict[str, Any]:
        """Return a JSON-safe dump of every metric, under sorted keys."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._hists[k].to_dict() for k in sorted(self._hists)
                },
            }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counters add, gauges take the max (high-water semantics survive the
        merge), histograms merge bucket-wise.
        """
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        hists = snapshot.get("histograms", {})
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0) + int(value)
            for key, value in gauges.items():
                prev = self._gauges.get(key)
                if prev is None or float(value) > prev:
                    self._gauges[key] = float(value)
            for key, payload in hists.items():
                incoming = Histogram.from_dict(payload)
                existing = self._hists.get(key)
                if existing is None:
                    self._hists[key] = incoming
                else:
                    existing.merge(incoming)

    def exposition(self, prefix: str = "repro") -> str:
        """Render every metric in Prometheus text exposition format.

        Metric names swap dots for underscores and gain a ``repro_`` prefix;
        histograms expose cumulative ``_bucket{le=...}`` series plus ``_sum``
        and ``_count``.
        """
        snap = self.snapshot()
        lines: List[str] = []
        for key, value in snap["counters"].items():
            name, labels = parse_key(key)
            lines.append(f"# TYPE {_promname(prefix, name)} counter")
            lines.append(f"{_promname(prefix, name)}{_promlabels(labels)} {value}")
        for key, value in snap["gauges"].items():
            name, labels = parse_key(key)
            lines.append(f"# TYPE {_promname(prefix, name)} gauge")
            lines.append(f"{_promname(prefix, name)}{_promlabels(labels)} {_fmt(value)}")
        for key, payload in snap["histograms"].items():
            name, labels = parse_key(key)
            base = _promname(prefix, name)
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, count in zip(payload["buckets"], payload["counts"]):
                cumulative += count
                lines.append(
                    f"{base}_bucket{_promlabels(labels, le=_fmt(bound))} {cumulative}"
                )
            cumulative += payload["counts"][-1]
            lines.append(f"{base}_bucket{_promlabels(labels, le='+Inf')} {cumulative}")
            lines.append(f"{base}_sum{_promlabels(labels)} {_fmt(payload['sum'])}")
            lines.append(f"{base}_count{_promlabels(labels)} {payload['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


def _promname(prefix: str, name: str) -> str:
    return f"{prefix}_{name}".replace(".", "_").replace("-", "_")


def _promlabels(labels: Mapping[str, str], **extra: str) -> str:
    merged = dict(labels)
    merged.update(extra)
    if not merged:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(merged.items()))
    return f"{{{body}}}"


def _fmt(value: float) -> str:
    out = repr(float(value))
    return out[:-2] if out.endswith(".0") else out


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge several registry snapshots into one combined snapshot."""
    combined = MetricsRegistry()
    for snap in snapshots:
        combined.merge(snap)
    return combined.snapshot()
