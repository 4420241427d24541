"""``Tour2`` baseline: binary tournaments without robustness machinery.

Tour2 replaces every maximum / minimum search by a degree-2 tournament and
every assignment decision by a tournament over the centers, exactly as the
paper's evaluation configures it.  It matches the robust algorithms when
noise is low and degrades as noise grows, which is the behaviour Figures 5-9
demonstrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.hierarchical.dendrogram import Dendrogram
from repro.hierarchical.noisy_linkage import noisy_linkage
from repro.kcenter.objective import ClusteringResult, check_k
from repro.maximum.tournament import tournament_max, tournament_min
from repro.metric.space import MetricSpace
from repro.oracles.base import (
    AssignmentDistanceOracle,
    BaseQuadrupletOracle,
    distance_comparison_view,
)
from repro.rng import SeedLike, ensure_rng


def kcenter_tour2(
    oracle: BaseQuadrupletOracle,
    k: int,
    points: Optional[Sequence[int]] = None,
    first_center: Optional[int] = None,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Greedy k-center where both primitives are binary tournaments.

    The next center is the winner of a degree-2 tournament over "distance to
    my assigned center"; each point is then assigned to the winner of a
    degree-2 tournament over "distance from me to each center".
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

    if first_center is None:
        first_center = points[int(rng.integers(0, len(points)))]
    else:
        first_center = int(first_center)
        if first_center not in set(points):
            raise InvalidParameterError("first_center must be one of the points")

    centers: List[int] = [first_center]
    assignment: Dict[int, int] = {p: first_center for p in points}

    while len(centers) < k:
        center_set = set(centers)
        candidates = [p for p in points if p not in center_set]
        if not candidates:
            break
        view = AssignmentDistanceOracle(oracle, assignment)
        new_center = tournament_max(candidates, view, degree=2, seed=rng)
        centers.append(new_center)
        assignment[new_center] = new_center
        for p in points:
            if p in center_set or p == new_center:
                continue
            point_view = distance_comparison_view(oracle, p, minimize=True)
            assignment[p] = tournament_max(centers, point_view, degree=2, seed=rng)

    for c in centers:
        assignment[c] = c
    n_queries = oracle.counter.charged_queries - queries_before
    return ClusteringResult(
        centers=centers,
        assignment=dict(assignment),
        n_queries=n_queries,
        meta={"method": "tour2"},
    )


def hierarchical_tour2(
    oracle: BaseQuadrupletOracle,
    linkage: str = "single",
    points: Optional[Sequence[int]] = None,
    n_merges: Optional[int] = None,
    space: Optional[MetricSpace] = None,
    seed: SeedLike = None,
) -> Dendrogram:
    """Agglomerative clustering whose closest-pair searches are binary tournaments."""
    return noisy_linkage(
        oracle,
        linkage=linkage,
        points=points,
        n_merges=n_merges,
        space=space,
        method="tour2",
        seed=seed,
    )


__all__ = ["kcenter_tour2", "hierarchical_tour2", "tournament_min"]
