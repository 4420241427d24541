"""k-center clustering result container and objective evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ClusteringError, InvalidParameterError
from repro.metric.space import MetricSpace


@dataclass
class ClusteringResult:
    """Centers and point-to-center assignment produced by a k-center algorithm.

    Attributes
    ----------
    centers:
        The selected center records, in the order they were chosen.
    assignment:
        ``assignment[i]`` is the center record that point ``i`` is assigned
        to.  Every value must be an element of ``centers``.
    n_queries:
        Number of oracle queries charged while producing this clustering
        (zero for ground-truth baselines).
    meta:
        Free-form extra information recorded by the algorithm (parameters,
        per-phase query counts, ...).
    """

    centers: List[int]
    assignment: Dict[int, int]
    n_queries: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        center_set = set(self.centers)
        if len(center_set) != len(self.centers):
            raise ClusteringError("duplicate centers in clustering result")
        for point, center in self.assignment.items():
            if center not in center_set:
                raise ClusteringError(
                    f"point {point} assigned to {center}, which is not a center"
                )

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    def cluster_members(self) -> Dict[int, List[int]]:
        """Mapping from each center to the sorted list of points assigned to it."""
        members: Dict[int, List[int]] = {c: [] for c in self.centers}
        for point, center in self.assignment.items():
            members[center].append(point)
        return {c: sorted(pts) for c, pts in members.items()}

    def labels(self, n_points: Optional[int] = None) -> np.ndarray:
        """Cluster labels (index of the assigned center within ``centers``) per point.

        Points missing from the assignment receive label ``-1``.
        """
        if n_points is None:
            n_points = max(self.assignment) + 1 if self.assignment else 0
        center_index = {c: idx for idx, c in enumerate(self.centers)}
        labels = np.full(n_points, -1, dtype=int)
        for point, center in self.assignment.items():
            if point < n_points:
                labels[point] = center_index[center]
        return labels


def check_k(k, n_points: Optional[int] = None) -> int:
    """Return the cluster count *k* as an ``int`` once it is valid.

    *k* must be a Python or NumPy integer (not a ``bool``) of at least 1,
    and at most *n_points* when that is given; anything else raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidParameterError(f"k must be an integer, got {k!r}")
    if k < 1 or (n_points is not None and k > n_points):
        bound = ">= 1" if n_points is None else f"between 1 and {n_points}"
        raise InvalidParameterError(f"k must be {bound}, got {k}")
    return int(k)


def kcenter_objective(space: MetricSpace, result: ClusteringResult) -> float:
    """Maximum true distance of any point from its assigned center (lower is better)."""
    if not result.assignment:
        raise InvalidParameterError("clustering result has an empty assignment")
    points = np.fromiter(result.assignment.keys(), dtype=np.int64)
    centers = np.fromiter(result.assignment.values(), dtype=np.int64)
    return float(space.pair_distances(points, centers).max())


def kcenter_objective_for_centers(
    space: MetricSpace, centers: Sequence[int], points: Optional[Sequence[int]] = None
) -> float:
    """Objective of the *best possible* assignment to the given centers.

    Useful to score a set of centers independently of how a noisy algorithm
    assigned the points.
    """
    centers = np.asarray([int(c) for c in centers], dtype=np.int64)
    if len(centers) == 0:
        raise InvalidParameterError("need at least one center")
    if points is None:
        points = np.arange(len(space), dtype=np.int64)
    else:
        points = np.asarray([int(p) for p in points], dtype=np.int64)
    if len(points) == 0:
        return 0.0
    # One batched distance evaluation per center (k is small), keeping the
    # working set at O(n) instead of materialising the n x k grid.
    best = space.distances_from(int(centers[0]), points)
    for c in centers[1:]:
        np.minimum(best, space.distances_from(int(c), points), out=best)
    return float(best.max())
