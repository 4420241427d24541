"""k-center clustering under persistent probabilistic noise (Algorithm 7 of the paper).

A single quadruplet answer is wrong with constant probability and cannot be
re-asked, so the greedy loop is rebuilt around per-cluster **cores**: small
sets of points that are, with high probability, genuinely close to their
center.  Cores make every later comparison robust by aggregation:

* **Phase 1 (sampled points).**  Each point joins a sample ``V~`` with
  probability ``gamma * log(n / delta) / m`` (``m`` = smallest optimal
  cluster size), so every optimal cluster contributes ``Theta(log(n/delta))``
  sampled points.  The greedy loop then runs on ``V~`` only:

  - ``identify_core`` (Algorithm 9) scores each member of a cluster by how
    often the oracle says it is closer to the center than other members, and
    keeps the top scorers as the core ``R``.
  - ``Assign`` (Algorithm 8) moves a point ``u`` from cluster ``C(s_j)`` to a
    new center ``s_i`` when ``ACount(u, s_i, s_j)`` — the number of core
    members of ``s_j`` the oracle believes are farther from ``u`` than
    ``s_i`` is — exceeds ``0.3 |R(s_j)|``.
  - ``Approx-Farthest`` finds the next center with Max-Adv where each
    comparison is answered robustly by ``cluster_comp`` (Algorithm 10),
    aggregating quadruplet queries over the two cores.

* **Phase 2 (remaining points).**  ``Assign-Final`` walks each unsampled
  point through the centers in selection order, moving it whenever the
  ACount test against the current cluster's core passes.

When optimal clusters have size ``Omega(log^3(n/delta)/delta)`` the result is
an ``O(1)`` approximation with ``O(n k log(n/delta) + (n/m)^2 k log^2(n/delta))``
queries (Theorem 4.4).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.kcenter.objective import ClusteringResult, check_k
from repro.maximum.adversarial import max_adversarial
from repro.oracles.base import BaseQuadrupletOracle, FunctionComparisonOracle
from repro.rng import SeedLike, ensure_rng

#: Decision threshold used by the ClusterComp comparison test (0.3 in the paper).
THRESHOLD_FRACTION = 0.3

#: Decision threshold for the ACount *move* tests in Assign / Assign-Final.
#: The paper uses 0.3 with cores of size Theta(log(n/delta)), where the
#: one-sided concentration bound of Lemma 11.2 is tight enough; at the small
#: core sizes used on laptop-scale data a symmetric threshold halfway between
#: the error rate p (<= 0.4) and 1 - p is far more robust, so the library
#: defaults to 0.5 (callers can restore the paper's constant per run).
ASSIGN_THRESHOLD_FRACTION = 0.5


def identify_core(
    oracle: BaseQuadrupletOracle,
    members: Sequence[int],
    center: int,
    core_size: int,
    prune_fraction: float = 0.25,
) -> List[int]:
    """Identify-Core (Algorithm 9): the *core_size* members closest to *center*.

    Each member ``u`` is scored by the number of members ``x`` for which the
    oracle answers that ``x`` is **not** closer to the center than ``u``
    (``O(s_i, x, s_i, u) == No``); the highest scorers are returned.  The
    center itself is always part of its own core.

    Members whose score falls below ``prune_fraction`` of the maximum
    attainable score are dropped even if the requested core size has not been
    reached: a small cluster that accidentally absorbed a far-away point
    would otherwise put that point into its core, and every later core-based
    vote (ClusterComp, the final assignment duels) would inherit the error.
    """
    members = [int(u) for u in members]
    center = int(center)
    if core_size < 1:
        raise InvalidParameterError(f"core_size must be >= 1, got {core_size}")
    if not 0.0 <= prune_fraction < 1.0:
        raise InvalidParameterError("prune_fraction must be in [0, 1)")
    others = [u for u in members if u != center]
    scores: Dict[int, int] = {}
    if others:
        # All ordered (u, x) pairs, x != u, scored in one batched round.
        arr = np.asarray(others, dtype=np.int64)
        m = len(arr)
        u_pos = np.repeat(np.arange(m), m)
        x_pos = np.tile(np.arange(m), m)
        # Filter self-pairs by value, like the scalar loop did, so duplicated
        # member ids don't issue queries the scalar path would have skipped.
        keep = arr[u_pos] != arr[x_pos]
        u_pos, x_pos = u_pos[keep], x_pos[keep]
        c = np.full(len(u_pos), center, dtype=np.int64)
        # "x is NOT closer to the center than u" scores a point for u.
        answers = oracle.compare_batch(c, arr[x_pos], c, arr[u_pos])
        pos_scores = np.zeros(m, dtype=np.int64)
        np.add.at(pos_scores, u_pos[~answers], 1)
        scores = {int(arr[pos]): int(pos_scores[pos]) for pos in range(m)}
    cutoff = prune_fraction * max(0, len(others) - 1)
    ranked = sorted(others, key=lambda u: -scores[u])
    kept = [u for u in ranked if scores[u] >= cutoff or len(others) <= 1]
    core = [center] + kept[: max(0, core_size - 1)]
    return core


def acount(
    oracle: BaseQuadrupletOracle,
    point: int,
    new_center: int,
    current_core: Sequence[int],
) -> int:
    """ACount (Algorithm 8): #core members judged farther from *point* than *new_center*."""
    point = int(point)
    new_center = int(new_center)
    xs = np.asarray([int(x) for x in current_core if int(x) != point], dtype=np.int64)
    if len(xs) == 0:
        return 0
    # Yes means d(point, new_center) <= d(point, x); one batched round.
    answers = oracle.compare_batch(
        np.full(len(xs), point, dtype=np.int64),
        np.full(len(xs), new_center, dtype=np.int64),
        np.full(len(xs), point, dtype=np.int64),
        xs,
    )
    return int(np.count_nonzero(answers))


def core_duel(
    oracle: BaseQuadrupletOracle,
    point: int,
    core_a: Sequence[int],
    core_b: Sequence[int],
    threshold_fraction: float = 0.5,
) -> bool:
    """Robust vote: is *point* closer to the cluster with core *core_a* than to *core_b*?

    Aggregates ``O(point, x, point, y)`` over all anchor pairs ``x in core_a``,
    ``y in core_b`` and answers True when at least *threshold_fraction* of the
    votes say the point is closer to ``core_a``'s side.  This is the
    assignment-flavoured analogue of ClusterComp: because every vote is an
    independent persistent query, the error probability decays exponentially
    in ``|core_a| * |core_b|``, which is what makes the final assignment safe
    even though the k-center objective is a maximum over points.
    """
    point = int(point)
    left = [int(x) for x in core_a if int(x) != point]
    right = [int(y) for y in core_b if int(y) != point]
    if not left or not right:
        # Degenerate cores: fall back to a single direct query between the
        # first representatives.
        a = left[0] if left else int(core_a[0])
        b = right[0] if right else int(core_b[0])
        return oracle.compare(point, a, point, b)
    xs = np.repeat(np.asarray(left, dtype=np.int64), len(right))
    ys = np.tile(np.asarray(right, dtype=np.int64), len(left))
    p = np.full(len(xs), point, dtype=np.int64)
    votes = int(np.count_nonzero(oracle.compare_batch(p, xs, p, ys)))
    return votes >= threshold_fraction * len(left) * len(right)


def cluster_comp(
    oracle: BaseQuadrupletOracle,
    v_i: int,
    s_i: int,
    v_j: int,
    s_j: int,
    cores: Dict[int, List[int]],
    subset_cores: Dict[int, List[int]],
    threshold_fraction: float = THRESHOLD_FRACTION,
) -> bool:
    """ClusterComp (Algorithm 10): robust answer to "is d(v_i, s_i) <= d(v_j, s_j)?".

    For two points in the same cluster the full core is used as anchors; for
    points in different clusters the cross product of the two (sqrt-sized)
    core subsets is used, keeping the per-comparison cost at
    ``Theta(log(n / delta))`` queries.
    """
    v_i, v_j, s_i, s_j = int(v_i), int(v_j), int(s_i), int(s_j)
    if s_i == s_j:
        anchors = [x for x in cores[s_i] if x not in (v_i, v_j)]
        if not anchors:
            return oracle.compare(v_i, s_i, v_j, s_j)
        xs = np.asarray(anchors, dtype=np.int64)
        count = int(
            np.count_nonzero(
                oracle.compare_batch(
                    np.full(len(xs), v_i, dtype=np.int64),
                    xs,
                    np.full(len(xs), v_j, dtype=np.int64),
                    xs,
                )
            )
        )
        comparisons = len(anchors)
    else:
        left = [x for x in subset_cores[s_i] if x != v_i]
        right = [y for y in subset_cores[s_j] if y != v_j]
        if not left or not right:
            return oracle.compare(v_i, s_i, v_j, s_j)
        xs = np.repeat(np.asarray(left, dtype=np.int64), len(right))
        ys = np.tile(np.asarray(right, dtype=np.int64), len(left))
        count = int(
            np.count_nonzero(
                oracle.compare_batch(
                    np.full(len(xs), v_i, dtype=np.int64),
                    xs,
                    np.full(len(xs), v_j, dtype=np.int64),
                    ys,
                )
            )
        )
        comparisons = len(left) * len(right)
    # Yes ("v_i is closer to its center") unless the count falls below threshold.
    return count >= threshold_fraction * comparisons


def kcenter_probabilistic(
    oracle: BaseQuadrupletOracle,
    k: int,
    min_cluster_size: int,
    points: Optional[Sequence[int]] = None,
    delta: float = 0.1,
    gamma: float = 2.0,
    first_center: Optional[int] = None,
    core_size: Optional[int] = None,
    assign_threshold: float = ASSIGN_THRESHOLD_FRACTION,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Greedy k-center under persistent probabilistic noise (Algorithm 7).

    Parameters
    ----------
    oracle:
        Noisy quadruplet oracle.
    k:
        Number of centers.
    min_cluster_size:
        Lower bound ``m`` on the optimal cluster size, used to set the
        sampling probability ``gamma * log(n / delta) / m``.
    points:
        Records to cluster (default: all records).
    delta:
        Target failure probability.
    gamma:
        Sampling constant (the paper's analysis uses 450; its experiments,
        and our default, use 2).
    first_center:
        Optional fixed initial center (must be a sampled point if supplied).
    core_size:
        Override of the per-cluster core size (default
        ``ceil(8 * gamma * log(n / delta) / 9)``).
    assign_threshold:
        ACount fraction above which a point moves to a newer center; 0.3 in
        the paper's analysis, 0.5 by default here (see
        :data:`ASSIGN_THRESHOLD_FRACTION`).
    seed:
        Seed for sampling and Max-Adv randomisation.
    """
    if not 0.0 < assign_threshold < 1.0:
        raise InvalidParameterError("assign_threshold must be in (0, 1)")
    if points is None:
        points = list(range(len(oracle)))
    else:
        points = [int(p) for p in points]
    if not points:
        raise EmptyInputError("k-center needs at least one point")
    k = check_k(k, len(points))
    if min_cluster_size < 1:
        raise InvalidParameterError("min_cluster_size must be at least 1")
    if gamma <= 0:
        raise InvalidParameterError("gamma must be positive")
    rng = ensure_rng(seed)
    queries_before = oracle.counter.charged_queries

    n = len(points)
    log_term = max(1.0, math.log(max(2, n) / delta))
    sample_probability = min(1.0, gamma * log_term / min_cluster_size)
    if core_size is None:
        core_size = max(2, int(math.ceil(8.0 * gamma * log_term / 9.0)))

    # --- Phase 1: sample V~ and run the greedy loop on it. -----------------
    sampled_mask = rng.random(n) < sample_probability
    sampled = [p for p, keep in zip(points, sampled_mask) if keep]
    if first_center is not None and int(first_center) not in sampled:
        sampled.append(int(first_center))
    if len(sampled) < k:
        # Not enough sampled points to host k centers; fall back to using all
        # points (equivalent to sampling probability 1).
        sampled = list(points)

    if first_center is None:
        s1 = sampled[int(rng.integers(0, len(sampled)))]
    else:
        s1 = int(first_center)

    centers: List[int] = [s1]
    clusters: Dict[int, Set[int]] = {s1: set(sampled)}
    cores: Dict[int, List[int]] = {
        s1: identify_core(oracle, list(clusters[s1]), s1, core_size)
    }

    def subset_core(center: int) -> List[int]:
        core = cores[center]
        size = max(1, int(math.isqrt(len(core))))
        return core[:size]

    while len(centers) < k:
        center_of: Dict[int, int] = {}
        for c, members in clusters.items():
            for u in members:
                center_of[u] = c
        candidates = [u for u in sampled if u not in centers]
        if not candidates:
            break
        subset_cores = {c: subset_core(c) for c in centers}

        def comparison(i: int, j: int) -> bool:
            return cluster_comp(
                oracle,
                i,
                center_of[i],
                j,
                center_of[j],
                cores,
                subset_cores,
            )

        view = FunctionComparisonOracle(comparison, counter=oracle.counter)
        # The farthest-point search trusts the current assignment; a point that
        # was accidentally left in a far-away cluster would masquerade as the
        # farthest point and plant a duplicate center in an already-covered
        # region.  Before accepting a winner, its own assignment is therefore
        # re-checked with core-vs-core votes; if the point actually belongs to
        # a closer cluster it is moved and the search repeats.
        new_center = None
        for _ in range(8):
            candidate = max_adversarial(
                candidates,
                view,
                delta=max(1e-6, delta / max(1, k - 1)),
                n_iterations=1,
                seed=rng,
            )
            best_center = center_of[candidate]
            for other in centers:
                if other == best_center:
                    continue
                if core_duel(oracle, candidate, cores[other], cores[best_center]):
                    best_center = other
            if best_center == center_of[candidate]:
                new_center = candidate
                break
            clusters[center_of[candidate]].discard(candidate)
            clusters[best_center].add(candidate)
            center_of[candidate] = best_center
        if new_center is None:
            new_center = candidate

        # --- Assign (Algorithm 8): pull points towards the new center. -----
        clusters[new_center] = {new_center}
        for s_j in centers:
            members = list(clusters[s_j])
            core_j = cores[s_j]
            for u in members:
                if u == s_j or u in cores[s_j] or u == new_center:
                    continue
                score = acount(oracle, u, new_center, core_j)
                if score > assign_threshold * len(core_j):
                    clusters[s_j].discard(u)
                    clusters[new_center].add(u)
        cores[new_center] = identify_core(
            oracle, list(clusters[new_center]), new_center, core_size
        )
        centers.append(new_center)

    # --- Phase 2: Assign-Final over every point. ----------------------------
    # Every point (sampled or not) walks through the centers in selection
    # order and moves whenever the core-vs-core vote (core_duel) says it is
    # closer to the newer center.  Using both cores per decision is the
    # assignment analogue of ClusterComp; it keeps the per-point failure
    # probability negligible, which matters because a single misassigned
    # point determines the (max-based) k-center objective.
    assignment: Dict[int, int] = {}
    center_set = set(centers)
    for u in points:
        if u in center_set:
            assignment[u] = u
            continue
        current = centers[0]
        for s_i in centers[1:]:
            if core_duel(oracle, u, cores[s_i], cores[current]):
                current = s_i
        assignment[u] = current

    n_queries = oracle.counter.charged_queries - queries_before
    return ClusteringResult(
        centers=centers,
        assignment=assignment,
        n_queries=n_queries,
        meta={
            "noise_model": "probabilistic",
            "delta": delta,
            "gamma": gamma,
            "core_size": core_size,
            "assign_threshold": assign_threshold,
            "sample_size": len(sampled),
            "sample_probability": sample_probability,
        },
    )
