"""Noise-free greedy k-center (Gonzalez 1985): the ``TDist`` baseline.

The greedy algorithm picks an arbitrary first center, then repeatedly adds
the point farthest from its current centers and reassigns points to the
closest center.  With exact distances it is a 2-approximation of the optimal
k-center objective, which is the best possible unless P = NP; the paper
normalises every noisy algorithm's objective against this baseline.

Each greedy round evaluates all candidate distances as one batched
:meth:`~repro.metric.space.MetricSpace.distances_from` call (vectorised for
the built-in distance functions), so the loop below runs k rounds of array
arithmetic rather than ``n * k`` scalar distance evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.kcenter.objective import ClusteringResult, check_k
from repro.metric.space import MetricSpace
from repro.rng import SeedLike, ensure_rng


@dataclass
class GreedyTrace:
    """The full state of one greedy farthest-point traversal.

    Exposes what :class:`~repro.kcenter.objective.ClusteringResult` throws
    away: the per-round selection values and the running nearest-center
    arrays, which is exactly the state an incremental maintainer needs to
    decide whether an edit perturbs the traversal.

    Attributes
    ----------
    points:
        The records the traversal ran over, in input order.
    centers:
        Selected centers, in selection order.
    selection_values:
        For each center after the first, the farthest-point distance with
        which it was selected (the round's ``max`` over ``dist_to_centers``).
    dist_to_centers:
        Distance from ``points[i]`` to its closest center, aligned with
        *points*.
    nearest_center:
        Closest center id for ``points[i]``, aligned with *points*.
    """

    points: List[int]
    centers: List[int]
    selection_values: List[float] = field(default_factory=list)
    dist_to_centers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nearest_center: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def result(self) -> ClusteringResult:
        """Collapse the trace into the batch API's result type."""
        assignment = {
            int(p): int(c) for p, c in zip(self.points, self.nearest_center)
        }
        for c in self.centers:
            assignment[c] = c
        return ClusteringResult(
            centers=list(self.centers), assignment=assignment, n_queries=0
        )


def greedy_trace(
    space: MetricSpace,
    k: int,
    points: Sequence[int],
    first_center: int,
) -> GreedyTrace:
    """Run the greedy traversal and keep its full per-round state.

    This is the loop :func:`greedy_kcenter_exact` has always run, extracted
    so the incremental maintainer's fallback recompute is the same code (and
    therefore bit-identical) rather than a reimplementation.
    """
    points = [int(p) for p in points]
    if not points:
        raise EmptyInputError("greedy k-center needs at least one point")
    first_center = int(first_center)
    centers = [first_center]
    selection_values: List[float] = []
    # dist_to_centers[i] tracks the distance from points[i] to its closest center.
    point_array = np.asarray(points, dtype=int)
    dist_to_centers = space.distances_from(first_center, point_array)
    nearest_center = np.full(len(points), first_center, dtype=int)

    while len(centers) < k:
        farthest_pos = int(np.argmax(dist_to_centers))
        new_center = int(point_array[farthest_pos])
        if new_center in centers:
            # All remaining points coincide with existing centers; stop early.
            break
        centers.append(new_center)
        selection_values.append(float(dist_to_centers[farthest_pos]))
        new_dists = space.distances_from(new_center, point_array)
        closer = new_dists < dist_to_centers
        dist_to_centers = np.where(closer, new_dists, dist_to_centers)
        nearest_center = np.where(closer, new_center, nearest_center)

    return GreedyTrace(
        points=points,
        centers=centers,
        selection_values=selection_values,
        dist_to_centers=dist_to_centers,
        nearest_center=nearest_center,
    )


def greedy_kcenter_exact(
    space: MetricSpace,
    k: int,
    points: Optional[Sequence[int]] = None,
    first_center: Optional[int] = None,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Run the exact greedy (farthest-point traversal) k-center algorithm.

    Parameters
    ----------
    space:
        Ground-truth metric space.
    k:
        Number of centers to select.
    points:
        Subset of records to cluster (default: all records).
    first_center:
        Optional fixed initial center; chosen uniformly at random otherwise.
    seed:
        Seed for the initial-center choice.
    """
    if points is None:
        points = list(range(len(space)))
    else:
        points = [int(p) for p in points]
    if not points:
        raise EmptyInputError("greedy k-center needs at least one point")
    k = check_k(k, len(points))
    rng = ensure_rng(seed)
    if first_center is None:
        first_center = points[int(rng.integers(0, len(points)))]
    else:
        first_center = int(first_center)
        if first_center not in set(points):
            raise InvalidParameterError("first_center must be one of the points")

    return greedy_trace(space, k, points, first_center).result()
