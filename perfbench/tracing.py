"""The benchmark's own span recorder and the per-layer metrics computed from it.

Nothing here touches ``repro.obs``: the recorder, the wrappers and the
self-time arithmetic live in the benchmark, so a change to the program's own
observability cannot change what the benchmark measures.

:class:`Tracer` wraps the public entry points of each layer module in spans
while it is installed (``with Tracer() as tracer:``) and restores the
originals afterwards.  A span records a name, start and end (``perf_counter_ns``),
its parent span, and two layer-specific counts (queries, pairs, votes, ...).
Spans are appended to flat ``array('q')`` columns in memory and written out
once, by :meth:`Tracer.save`, when the run ends.

Parents are tracked in a :class:`contextvars.ContextVar`, so spans opened in
concurrent asyncio tasks nest under the task that opened them, not under
whatever another task was doing.  Spans of kind ``wait`` (a service request
awaiting its answer) overlap other work and are left out of busy and self
time; every other span nests strictly, so a span's self time is its duration
minus its direct children's durations.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns as _now
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers whose spans the benchmark reports, in report order.
ALGORITHM_LAYERS = ("maximum", "kcenter", "neighbors", "hierarchical")
LAYERS = ALGORITHM_LAYERS + ("oracles", "metric", "store", "service")

#: Span kinds: ``busy`` spans nest and count towards self time; ``wait``
#: spans (requests awaiting an answer) overlap and do not.
BUSY, WAIT = 0, 1

_NS = 1e-9


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Install span wrappers around the layer entry points; record spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.kinds: List[int] = []
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.count_col = array("q")
        self.aux_col = array("q")
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._restore: List[Callable[[], None]] = []
        #: Distances evaluated by the lazy/disk metric backends (see watch_space).
        self.distances_computed = 0
        self.bounded_spaces = 0

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str, kind: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return nid

    def _open(self, nid: int) -> Tuple[int, contextvars.Token]:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._current.get())
        self.end_col.append(0)
        self.count_col.append(0)
        self.aux_col.append(0)
        self.start_col.append(_now())
        return idx, self._current.set(idx)

    def _close(self, idx: int, token: contextvars.Token, count: int, aux: int) -> None:
        self.end_col[idx] = _now()
        self._current.reset(token)
        self.count_col[idx] = count
        self.aux_col[idx] = aux

    def _wrap(self, fn, name: str, kind: int = BUSY, measure=None):
        """Span-recording wrapper; ``measure(args, result, pre)`` gives counts.

        ``measure`` may carry a ``pre(args)`` attribute whose value is handed
        back as ``pre`` (used to read a counter before the call).
        """
        nid = self._name_id(name, kind)
        pre_fn = getattr(measure, "pre", None)
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                pre = pre_fn(args) if pre_fn is not None else None
                idx, token = tracer._open(nid)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    count, aux = measure(args, result, pre) if measure else (0, 0)
                    tracer._close(idx, token, count, aux)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = pre_fn(args) if pre_fn is not None else None
            idx, token = tracer._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count, aux = measure(args, result, pre) if measure else (0, 0)
                tracer._close(idx, token, count, aux)

        return wrapper

    # -- installing -----------------------------------------------------------

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere a ``repro`` module binds it.

        Algorithm modules import each other's entry points by name, so the
        wrapper replaces every binding of the same function object in every
        loaded ``repro`` module, not just the defining one.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            return
        wrapper = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, key, original)
                    )

    def wrap_method(self, cls, attr: str, name: str, kind: int = BUSY, measure=None) -> None:
        """Wrap a method defined on *cls* itself (inherited ones are skipped)."""
        original = cls.__dict__.get(attr)
        if original is None or not callable(original):
            return
        setattr(cls, attr, self._wrap(original, name, kind, measure))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def watch_space(self, space) -> None:
        """Count the distances a bounded metric backend actually evaluates.

        The lazy and disk tiers compute whole blocks and rows to answer a few
        pairs; counting the elements their distance callable returns is what
        makes ``metric.useful_ratio`` measurable.  The dense tier has no such
        backend and evaluates exactly what it is asked for.
        """
        backend = getattr(space, "_lazy", None)
        if backend is None or not callable(getattr(backend, "distance_fn", None)):
            return
        original = backend.distance_fn
        tracer = self

        def counting_distance(*args, **kwargs):
            out = original(*args, **kwargs)
            tracer.distances_computed += int(np.size(out))
            return out

        backend.distance_fn = counting_distance
        self.bounded_spaces += 1
        self._restore.append(functools.partial(setattr, backend, "distance_fn", original))

    def install(self) -> "Tracer":
        """Wrap every layer's entry points; :meth:`uninstall` restores them."""
        from repro import hierarchical, kcenter, maximum, metric, neighbors, oracles
        from repro import service, store

        packages = {
            "maximum": maximum,
            "kcenter": kcenter,
            "neighbors": neighbors,
            "hierarchical": hierarchical,
        }
        for layer, package in packages.items():
            for attr in getattr(package, "__all__", ()):
                value = getattr(package, attr, None)
                if inspect.isfunction(value):
                    self.wrap_function(value.__module__, attr, f"{layer}.{attr}")
        for attr in ("compare", "compare_batch"):
            self.wrap_method(neighbors.PairwiseCompOracle, attr, "neighbors.pairwise_comp")

        self.wrap_method(
            oracles.DistanceQuadrupletOracle, "compare_batch", "oracles.compare_batch",
            measure=_counter_delta,
        )
        self.wrap_method(
            oracles.DistanceQuadrupletOracle, "compare", "oracles.compare", measure=_counter_delta
        )
        for attr in oracles.__all__:
            cls = getattr(oracles, attr)
            if inspect.isclass(cls) and issubclass(cls, oracles.NoiseModel):
                self.wrap_method(cls, "answer_batch", "oracles.noise", measure=_result_len)
                self.wrap_method(cls, "answer", "oracles.noise", measure=_one)

        space = metric.PointCloudSpace
        self.wrap_method(space, "pair_distances", "metric.pair_distances", measure=_result_len)
        self.wrap_method(space, "distances_from", "metric.distances_from", measure=_result_len)
        self.wrap_method(space, "distance", "metric.distance", measure=_one)

        self.wrap_method(store.AnswerStore, "__init__", "store.open")
        self.wrap_method(store.AnswerStore, "lookup_batch", "store.lookup", measure=_lookup_batch)
        self.wrap_method(store.AnswerStore, "add_votes", "store.append", measure=_first_arg_len)
        self.wrap_method(store.AnswerStore, "flush", "store.flush")
        self.wrap_method(
            store.StoredQuadrupletOracle, "serve_batch", "store.serve", measure=_result_len
        )

        self.wrap_method(
            service.ServiceSession, "quadruplet_batch", "service.request", kind=WAIT
        )
        # Micro-batch dispatch has no public entry point; the wrap is skipped
        # (and the service dispatch metrics read 0) if the method moves.
        self.wrap_method(
            service.CrowdOracleService, "_run_batch", "service.dispatch", measure=_dispatch
        )
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int64),
            "start": np.frombuffer(self.start_col, dtype=np.int64),
            "end": np.frombuffer(self.end_col, dtype=np.int64),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64),
            "count": np.frombuffer(self.count_col, dtype=np.int64),
            "aux": np.frombuffer(self.aux_col, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every recorded span (columns plus the name table) as one ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            kinds=np.array(self.kinds, dtype=np.int64),
            **self.columns(),
        )


# -- measure hooks: (args, result, pre) -> (count, aux) --------------------------


def _counter_delta(args, result, pre):
    counter = getattr(args[0], "counter", None)
    if counter is None or pre is None:
        return 0, 0
    return counter.total_queries - pre[0], counter.cached_queries - pre[1]


def _counter_snapshot(args):
    counter = getattr(args[0], "counter", None)
    if counter is None:
        return None
    return counter.total_queries, counter.cached_queries


_counter_delta.pre = _counter_snapshot


def _result_len(args, result, pre):
    return (0 if result is None else int(np.size(result))), 0


def _one(args, result, pre):
    return 1, 0


def _first_arg_len(args, result, pre):
    return int(np.size(args[1])), 0


def _lookup_batch(args, result, pre):
    if result is None:
        return 0, 0
    hits = result[0]
    return int(np.size(hits)), int(np.count_nonzero(hits))


def _dispatch(args, result, pre):
    batch, size = args[1], args[2]
    return len(batch), int(size)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(
    tracer: Tracer, wall_s: float, layer_stats: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Per-layer counts, busy and self times computed from the recorded spans.

    *wall_s* is the traced region's wall time; *layer_stats* carries counters
    the workload read from the program's public stats (blocks materialised,
    spill reloads, fsyncs, store bytes), which spans cannot see.
    """
    stats = layer_stats or {}
    cols = tracer.columns()
    names = tracer.names
    name_ids = cols["name"].tolist()
    parents = cols["parent"].tolist()
    counts = cols["count"].tolist()
    auxes = cols["aux"].tolist()
    dur = ((cols["end"] - cols["start"]) * _NS).tolist()
    n = len(name_ids)

    layer_idx = {layer: pos for pos, layer in enumerate(LAYERS)}
    span_layer = [layer_idx.get(_layer_of(name), -1) for name in names]
    span_wait = [kind == WAIT for kind in tracer.kinds]

    # Layers open above each span (bitmask over LAYERS).  Parents always
    # precede their children in the columns, so one forward pass suffices.
    above = [0] * n
    child_sum = [0.0] * n
    for idx in range(n):
        parent = parents[idx]
        if parent >= 0:
            pl = span_layer[name_ids[parent]]
            above[idx] = above[parent] | ((1 << pl) if pl >= 0 else 0)
            if not span_wait[name_ids[idx]]:
                child_sum[parent] += dur[idx]

    out: Dict[str, float] = {}
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    algo_oracle_calls = {layer: 0 for layer in ALGORITHM_LAYERS}
    algo_queries = {layer: 0 for layer in ALGORITHM_LAYERS}
    by_name_calls: Dict[str, int] = {}
    by_name_busy: Dict[str, float] = {}
    by_name_count: Dict[str, int] = {}
    by_name_aux: Dict[str, int] = {}
    covered = 0.0
    dispatch_weighted = 0.0
    request_total = 0.0
    serve_under_dispatch = 0

    for idx in range(n):
        nid = name_ids[idx]
        pos = span_layer[nid]
        name = names[nid]
        d = dur[idx]
        if span_wait[nid]:
            request_total += d
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            continue
        if parents[idx] < 0:
            covered += d
        if pos < 0:
            continue
        layer = LAYERS[pos]
        self_s[layer] += d - child_sum[idx]
        outermost = not (above[idx] >> pos) & 1
        if outermost:
            calls[layer] += 1
            busy[layer] += d
        # Per-name tallies count entries into that entry point (not nested
        # re-entries of the same name, e.g. a view's compare calling compare).
        parent = parents[idx]
        if parent < 0 or names[name_ids[parent]] != name:
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            by_name_busy[name] = by_name_busy.get(name, 0.0) + d
            by_name_count[name] = by_name_count.get(name, 0) + counts[idx]
            by_name_aux[name] = by_name_aux.get(name, 0) + auxes[idx]
        if layer == "oracles" and outermost and name != "oracles.noise":
            for algo in ALGORITHM_LAYERS:
                if (above[idx] >> layer_idx[algo]) & 1:
                    algo_oracle_calls[algo] += 1
                    algo_queries[algo] += counts[idx]
        if name == "service.dispatch":
            dispatch_weighted += d * counts[idx]
        if name == "store.serve" and (above[idx] >> layer_idx["service"]) & 1 and outermost:
            serve_under_dispatch += 1

    def ratio(num: float, den: float) -> float:
        return float(num) / float(den) if den else 0.0

    for layer in ALGORITHM_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.oracle_calls"] = algo_oracle_calls[layer]
        out[f"{layer}.queries_per_call"] = ratio(algo_queries[layer], algo_oracle_calls[layer])

    compares = ("oracles.compare_batch", "oracles.compare")
    queries = sum(by_name_count.get(name, 0) for name in compares)
    cached = sum(by_name_aux.get(name, 0) for name in compares)
    out["oracles.compare_batch.calls"] = by_name_calls.get("oracles.compare_batch", 0)
    out["oracles.compare.calls"] = by_name_calls.get("oracles.compare", 0)
    out["oracles.queries"] = queries
    out["oracles.busy_s"] = busy["oracles"]
    out["oracles.self_s"] = self_s["oracles"]
    out["oracles.cache_hit_ratio"] = ratio(cached, queries)
    out["oracles.noise.calls"] = by_name_calls.get("oracles.noise", 0)
    out["oracles.noise.busy_s"] = by_name_busy.get("oracles.noise", 0.0)

    pairs = by_name_count.get("metric.pair_distances", 0)
    requested = sum(
        by_name_count.get(name, 0)
        for name in ("metric.pair_distances", "metric.distances_from", "metric.distance")
    )
    computed = tracer.distances_computed if tracer.bounded_spaces else requested
    out["metric.pair_distances.calls"] = by_name_calls.get("metric.pair_distances", 0)
    out["metric.pairs_requested"] = pairs
    out["metric.distances_from.calls"] = by_name_calls.get("metric.distances_from", 0)
    out["metric.busy_s"] = busy["metric"]
    out["metric.self_s"] = self_s["metric"]
    out["metric.blocks_materialized"] = stats.get("metric.blocks_materialized", 0)
    out["metric.distances_computed"] = computed
    out["metric.useful_ratio"] = ratio(pairs, computed)
    out["metric.spill_reloads"] = stats.get("metric.spill_reloads", 0)
    out["metric.spill_bytes"] = stats.get("metric.spill_bytes", 0)

    fsyncs = stats.get("store.fsyncs", 0)
    lookups = by_name_count.get("store.lookup", 0)
    out["store.open_s"] = by_name_busy.get("store.open", 0.0)
    out["store.lookup.calls"] = by_name_calls.get("store.lookup", 0)
    out["store.lookup.busy_s"] = by_name_busy.get("store.lookup", 0.0)
    out["store.append.calls"] = by_name_calls.get("store.append", 0)
    out["store.append.busy_s"] = by_name_busy.get("store.append", 0.0)
    out["store.votes_appended"] = by_name_count.get("store.append", 0)
    out["store.flush.busy_s"] = by_name_busy.get("store.flush", 0.0)
    out["store.fsyncs"] = fsyncs
    out["store.appends_per_fsync"] = ratio(stats.get("store.appends", 0), fsyncs)
    out["store.hit_ratio"] = ratio(by_name_aux.get("store.lookup", 0), lookups)
    out["store.bytes_per_vote"] = stats.get("store.bytes_per_vote", 0.0)
    out["store.self_s"] = self_s["store"]

    batches = by_name_calls.get("service.dispatch", 0)
    out["service.requests"] = by_name_calls.get("service.request", 0)
    out["service.batches"] = batches
    out["service.batch_size_mean"] = ratio(by_name_aux.get("service.dispatch", 0), batches)
    out["service.serve_calls_per_batch"] = ratio(serve_under_dispatch, batches)
    out["service.dispatch_busy_s"] = by_name_busy.get("service.dispatch", 0.0)
    out["service.wait_s"] = max(0.0, request_total - dispatch_weighted)
    out["service.self_s"] = self_s["service"]

    for layer in LAYERS:
        out[f"{layer}.share"] = ratio(self_s[layer], wall_s)
    out["bench.traced_wall_s"] = wall_s
    out["bench.unattributed_s"] = max(0.0, wall_s - covered)
    return out
