"""``Samp`` baseline: solve the problem on a small uniform sample.

For farthest / nearest neighbour search, Samp runs Count-Max over a
``sqrt(n)`` sample (see :mod:`repro.neighbors`).  For k-center it samples
``k * log(n)`` points, runs the greedy algorithm (with oracle comparisons)
on the sample only, and then assigns every remaining point by comparing it
against every pair of identified centers — the configuration described in
Section 6.1 of the paper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.hierarchical.dendrogram import Dendrogram
from repro.hierarchical.noisy_linkage import noisy_linkage
from repro.kcenter.objective import ClusteringResult, check_k
from repro.maximum.count_max import count_max, count_min
from repro.maximum.naive import naive_max
from repro.metric.space import MetricSpace
from repro.oracles.base import (
    AssignmentDistanceOracle,
    BaseQuadrupletOracle,
    distance_comparison_view,
)
from repro.rng import SeedLike, ensure_rng


def kcenter_samp(
    oracle: BaseQuadrupletOracle,
    k: int,
    points: Optional[Sequence[int]] = None,
    sample_size: Optional[int] = None,
    first_center: Optional[int] = None,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Greedy k-center on a ``k log n`` sample, then assign the rest.

    The greedy loop on the sample uses a sequential-scan farthest search and
    Count-based assignment (both plain oracle queries, no robustness
    machinery); remaining points are assigned by Count over all center pairs.
    """
    if points is None:
        points = list(range(len(oracle)))
    else:
        points = [int(p) for p in points]
    if not points:
        raise EmptyInputError("k-center needs at least one point")
    k = check_k(k, len(points))
    rng = ensure_rng(seed)
    queries_before = oracle.counter.charged_queries

    n = len(points)
    if sample_size is None:
        sample_size = int(math.ceil(k * math.log(max(2, n))))
    sample_size = int(min(max(k, sample_size), n))
    positions = rng.choice(n, size=sample_size, replace=False)
    sample = [points[int(p)] for p in positions]
    if first_center is not None:
        first_center = int(first_center)
        if first_center not in set(points):
            raise InvalidParameterError("first_center must be one of the points")
        if first_center not in set(sample):
            sample[0] = first_center
    else:
        first_center = sample[int(rng.integers(0, len(sample)))]

    centers: List[int] = [first_center]
    sample_assignment: Dict[int, int] = {p: first_center for p in sample}

    while len(centers) < k:
        center_set = set(centers)
        candidates = [p for p in sample if p not in center_set]
        if not candidates:
            break
        view = AssignmentDistanceOracle(oracle, sample_assignment)
        new_center = naive_max(candidates, view)
        centers.append(new_center)
        sample_assignment[new_center] = new_center
        for p in sample:
            if p in center_set or p == new_center:
                continue
            point_view = distance_comparison_view(oracle, p, minimize=False)
            sample_assignment[p] = count_min(centers, point_view, seed=rng)

    # Assign every point (sampled or not) to its Count-best center.
    assignment: Dict[int, int] = {}
    center_set = set(centers)
    for p in points:
        if p in center_set:
            assignment[p] = p
            continue
        point_view = distance_comparison_view(oracle, p, minimize=False)
        assignment[p] = count_min(centers, point_view, seed=rng)

    n_queries = oracle.counter.charged_queries - queries_before
    return ClusteringResult(
        centers=centers,
        assignment=assignment,
        n_queries=n_queries,
        meta={"method": "samp", "sample_size": sample_size},
    )


def hierarchical_samp(
    oracle: BaseQuadrupletOracle,
    linkage: str = "single",
    points: Optional[Sequence[int]] = None,
    n_merges: Optional[int] = None,
    space: Optional[MetricSpace] = None,
    seed: SeedLike = None,
) -> Dendrogram:
    """Agglomerative clustering whose closest-pair searches use sqrt-sample Count-Max."""
    return noisy_linkage(
        oracle,
        linkage=linkage,
        points=points,
        n_merges=n_merges,
        space=space,
        method="samp",
        seed=seed,
    )


__all__ = ["kcenter_samp", "hierarchical_samp", "count_max"]
