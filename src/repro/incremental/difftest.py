"""The differential-testing harness: incremental output == batch recompute.

Each ``difftest_*`` driver plays one seeded
:class:`~repro.incremental.edits.EditStream` through an incremental
maintainer and, at every checked step, recomputes the answer from scratch
with the batch code over the same live set, asserting:

1. **Output equivalence** — bit-identical results (same winner, same
   :class:`~repro.kcenter.objective.ClusteringResult`, same
   :class:`~repro.hierarchical.dendrogram.Dendrogram` merges) under the
   shared seed;
2. **Cost dominance** — when every step is checked
   (``check_every=1``), the incremental path's cumulative charged cost
   (oracle queries for Count-Max, distance evaluations for the metric
   algorithms) never exceeds the batch path's.

A failed assertion raises
:class:`~repro.exceptions.DifftestMismatchError`; a clean run returns a
deterministic report dict, the figures the incremental benchmark gate
(``benchmarks/test_incremental_smoke.py``) asserts on; wall-clock
aggregates land under the ``"measured"`` key.

Noise and bit-identity
----------------------
The Count-Max driver compares against a *fresh* batch oracle per check, so
its noise model must answer each query the same way regardless of arrival
order.  ``"exact"`` and adversarial ``"lie"`` noise are deterministic;
``"hashed"`` (:class:`~repro.oracles.noise.HashedProbabilisticNoise`)
derives persistent flips from a hash of ``(seed, query)``.  Plain
:class:`~repro.oracles.noise.ProbabilisticNoise` draws flips in
first-occurrence order and therefore *cannot* face an incremental and a
batch path with the same crowd; the driver rejects it by construction
(there is no ``"probabilistic"`` kind here).
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.exceptions import DifftestMismatchError, InvalidParameterError
from repro.hierarchical.exact_linkage import exact_linkage
from repro.incremental.edits import EditStream
from repro.incremental.kcenter import IncrementalGreedyKCenter
from repro.incremental.linkage import IncrementalLinkage
from repro.incremental.maximum import IncrementalCountMax
from repro.incremental.view import MutableSpaceView
from repro.kcenter.greedy_exact import greedy_kcenter_exact
from repro.maximum.count_max import count_scores, resolve_count_winner
from repro.metric.space import PointCloudSpace
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import (
    AdversarialNoise,
    ExactNoise,
    HashedProbabilisticNoise,
    NoiseModel,
)

#: Noise kinds whose answers are a pure function of the query (order-free).
DIFFTEST_NOISE_KINDS = ("exact", "lie", "hashed")


def _make_order_free_noise(
    kind: str, p: float, mu: float, seed: int
) -> NoiseModel:
    if kind == "exact":
        return ExactNoise()
    if kind == "lie":
        return AdversarialNoise(mu=mu, adversary="lie")
    if kind == "hashed":
        return HashedProbabilisticNoise(p=p, seed=seed)
    raise InvalidParameterError(
        f"difftest noise must be one of {DIFFTEST_NOISE_KINDS} (order-free "
        f"models only), got {kind!r}"
    )


def _check_steps(n_ops: int, check_every: int) -> set:
    if check_every < 1:
        raise InvalidParameterError(f"check_every must be >= 1, got {check_every}")
    steps = set(range(0, n_ops + 1, check_every))
    steps.add(n_ops)  # always check the final state
    return steps


def _mismatch(step: int, what: str, incremental, batch) -> DifftestMismatchError:
    return DifftestMismatchError(
        f"step {step}: incremental {what} diverged from batch recompute:\n"
        f"  incremental: {incremental!r}\n"
        f"  batch:       {batch!r}"
    )


def _assert_cost_dominance(step: int, what: str, inc_cost: int, batch_cost: int):
    if inc_cost > batch_cost:
        raise DifftestMismatchError(
            f"step {step}: incremental path charged more {what} than the "
            f"batch path ({inc_cost} > {batch_cost})"
        )


def difftest_count_max(
    stream: EditStream,
    seed: int = 0,
    noise: str = "exact",
    noise_p: float = 0.15,
    mu: float = 0.3,
    check_every: int = 1,
) -> Dict[str, Any]:
    """Differential-test :class:`IncrementalCountMax` against batch Count-Max.

    At every checked step the full score table *and* the tie-broken winner
    must match a fresh batch run over the live items (shared tie-break
    seed).  The batch oracle is constructed fresh per check with the same
    order-free noise, so it faces the same crowd while its
    :class:`~repro.oracles.counting.QueryCounter` prices a true from-scratch
    recompute.
    """
    values = stream.values
    inc_counter = QueryCounter()
    inc_oracle = ValueComparisonOracle(
        values,
        noise=_make_order_free_noise(noise, noise_p, mu, seed),
        counter=inc_counter,
        cache_answers=True,
    )
    t_inc = time.perf_counter()
    maintainer = IncrementalCountMax(inc_oracle, items=stream.initial_ids, seed=seed)
    inc_seconds = time.perf_counter() - t_inc

    checks = _check_steps(stream.n_ops, check_every)
    batch_charged = 0
    batch_seconds = 0.0
    n_checks = 0

    def check(step: int) -> None:
        nonlocal batch_charged, batch_seconds, n_checks
        items = maintainer.items
        batch_counter = QueryCounter()
        batch_oracle = ValueComparisonOracle(
            values,
            noise=_make_order_free_noise(noise, noise_p, mu, seed),
            counter=batch_counter,
            cache_answers=True,
        )
        t0 = time.perf_counter()
        batch_scores = count_scores(items, batch_oracle)
        batch_winner = resolve_count_winner(batch_scores, seed=seed)
        batch_seconds += time.perf_counter() - t0
        batch_charged += batch_counter.charged_queries
        n_checks += 1
        inc_scores = maintainer.scores()
        if inc_scores != batch_scores:
            raise _mismatch(step, "score table", inc_scores, batch_scores)
        inc_winner = maintainer.winner()
        if inc_winner != batch_winner:
            raise _mismatch(step, "winner", inc_winner, batch_winner)
        if check_every == 1:
            _assert_cost_dominance(
                step, "queries", inc_counter.charged_queries, batch_charged
            )

    check(0)
    for step, edit in enumerate(stream.edits, start=1):
        t0 = time.perf_counter()
        if edit.op == "insert":
            maintainer.insert(edit.ident)
        else:
            maintainer.delete(edit.ident)
        inc_seconds += time.perf_counter() - t0
        if step in checks:
            check(step)

    n_ops = max(stream.n_ops, 1)
    return {
        "algorithm": "count_max",
        "noise": noise,
        "n_ops": stream.n_ops,
        "n_checks": n_checks,
        "final_live": len(maintainer.items),
        "outputs_identical": True,
        "inc_charged": inc_counter.charged_queries,
        "batch_charged": batch_charged,
        "inc_cost_per_update": inc_counter.charged_queries / n_ops,
        "batch_cost_per_recompute": batch_charged / max(n_checks, 1),
        "cost_ratio": (batch_charged / max(n_checks, 1))
        / max(inc_counter.charged_queries / n_ops, 1e-9),
        "measured": {
            "inc_seconds": inc_seconds,
            "batch_seconds": batch_seconds,
            "inc_seconds_per_update": inc_seconds / n_ops,
            "batch_seconds_per_recompute": batch_seconds / max(n_checks, 1),
            "speedup_per_update": (batch_seconds / max(n_checks, 1))
            / max(inc_seconds / n_ops, 1e-9),
        },
    }


def difftest_kcenter(
    stream: EditStream,
    k: int = 4,
    backend: str = "auto",
    check_every: int = 1,
) -> Dict[str, Any]:
    """Differential-test :class:`IncrementalGreedyKCenter` against the batch code.

    Two :class:`~repro.incremental.view.MutableSpaceView` instances over one
    universe mirror the same edits: the maintainer drives one, every checked
    step runs :func:`~repro.kcenter.greedy_exact.greedy_kcenter_exact` over
    the other (first center pinned to the first live point, effective k
    clamped to the live count — the maintainer's contract) and the two
    :class:`~repro.kcenter.objective.ClusteringResult` values must be equal.
    The views' distance-row counters price the two paths.
    """
    base = PointCloudSpace(stream.points, backend=backend)
    view_inc = MutableSpaceView(base, live=stream.initial_ids)
    view_batch = MutableSpaceView(base, live=stream.initial_ids)
    t0 = time.perf_counter()
    maintainer = IncrementalGreedyKCenter(view_inc, k=k)
    inc_seconds = time.perf_counter() - t0

    checks = _check_steps(stream.n_ops, check_every)
    batch_seconds = 0.0
    n_checks = 0

    def check(step: int) -> None:
        nonlocal batch_seconds, n_checks
        live = view_batch.live_ids()
        t0 = time.perf_counter()
        batch = greedy_kcenter_exact(
            view_batch, k=min(k, len(live)), points=live, first_center=live[0]
        )
        batch_seconds += time.perf_counter() - t0
        n_checks += 1
        inc = maintainer.result()
        if inc != batch:
            raise _mismatch(step, "clustering", inc, batch)
        if check_every == 1:
            _assert_cost_dominance(
                step, "distance rows", view_inc.total_evals, view_batch.total_evals
            )

    check(0)
    for step, edit in enumerate(stream.edits, start=1):
        view_batch.apply(edit)
        t0 = time.perf_counter()
        if edit.op == "insert":
            maintainer.insert(edit.ident)
        else:
            maintainer.delete(edit.ident)
        inc_seconds += time.perf_counter() - t0
        if step in checks:
            check(step)

    n_ops = max(stream.n_ops, 1)
    inc_cost = view_inc.total_evals
    batch_cost = view_batch.total_evals
    return {
        "algorithm": "greedy_kcenter",
        "k": int(k),
        "n_ops": stream.n_ops,
        "n_checks": n_checks,
        "final_live": view_inc.n_live,
        "outputs_identical": True,
        "inc_evals": inc_cost,
        "batch_evals": batch_cost,
        "inc_cost_per_update": inc_cost / n_ops,
        "batch_cost_per_recompute": batch_cost / max(n_checks, 1),
        "cost_ratio": (batch_cost / max(n_checks, 1)) / max(inc_cost / n_ops, 1e-9),
        **maintainer.stats(),
        "measured": {
            "inc_seconds": inc_seconds,
            "batch_seconds": batch_seconds,
            "inc_seconds_per_update": inc_seconds / n_ops,
            "batch_seconds_per_recompute": batch_seconds / max(n_checks, 1),
            "speedup_per_update": (batch_seconds / max(n_checks, 1))
            / max(inc_seconds / n_ops, 1e-9),
        },
    }


def difftest_linkage(
    stream: EditStream,
    linkage: str = "single",
    backend: str = "auto",
    check_every: int = 1,
) -> Dict[str, Any]:
    """Differential-test :class:`IncrementalLinkage` against batch exact linkage.

    At every checked step the maintained dendrogram — prefix replayed, suffix
    recomputed — must equal ``exact_linkage`` over the live order,
    ``MergeStep`` for ``MergeStep`` (ids, witness pairs, distances, sizes).
    """
    base = PointCloudSpace(stream.points, backend=backend)
    view_inc = MutableSpaceView(base, live=stream.initial_ids)
    view_batch = MutableSpaceView(base, live=stream.initial_ids)
    t0 = time.perf_counter()
    maintainer = IncrementalLinkage(view_inc, linkage=linkage)
    inc_seconds = time.perf_counter() - t0

    checks = _check_steps(stream.n_ops, check_every)
    batch_seconds = 0.0
    n_checks = 0

    def check(step: int) -> None:
        nonlocal batch_seconds, n_checks, inc_seconds
        live = view_batch.live_ids()
        t0 = time.perf_counter()
        batch = exact_linkage(view_batch, linkage=linkage, points=live)
        batch_seconds += time.perf_counter() - t0
        n_checks += 1
        t0 = time.perf_counter()
        inc = maintainer.result()
        inc_seconds += time.perf_counter() - t0
        if inc.n_leaves != batch.n_leaves or inc.merges != batch.merges:
            raise _mismatch(step, "dendrogram", inc.merges[:5], batch.merges[:5])
        if check_every == 1:
            _assert_cost_dominance(
                step, "distance evals", view_inc.total_evals, view_batch.total_evals
            )

    check(0)
    for step, edit in enumerate(stream.edits, start=1):
        view_batch.apply(edit)
        t0 = time.perf_counter()
        if edit.op == "insert":
            maintainer.insert(edit.ident)
        else:
            maintainer.delete(edit.ident)
        inc_seconds += time.perf_counter() - t0
        if step in checks:
            check(step)

    n_ops = max(stream.n_ops, 1)
    inc_cost = view_inc.total_evals
    batch_cost = view_batch.total_evals
    return {
        "algorithm": "linkage",
        "linkage": linkage,
        "n_ops": stream.n_ops,
        "n_checks": n_checks,
        "final_live": view_inc.n_live,
        "outputs_identical": True,
        "inc_evals": inc_cost,
        "batch_evals": batch_cost,
        "inc_cost_per_update": inc_cost / n_ops,
        "batch_cost_per_recompute": batch_cost / max(n_checks, 1),
        "cost_ratio": (batch_cost / max(n_checks, 1)) / max(inc_cost / n_ops, 1e-9),
        **maintainer.stats(),
        "measured": {
            "inc_seconds": inc_seconds,
            "batch_seconds": batch_seconds,
            "inc_seconds_per_update": inc_seconds / n_ops,
            "batch_seconds_per_recompute": batch_seconds / max(n_checks, 1),
            "speedup_per_update": (batch_seconds / max(n_checks, 1))
            / max(inc_seconds / n_ops, 1e-9),
        },
    }
