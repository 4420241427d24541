"""k-center clustering under adversarial noise (Algorithm 6 of the paper).

The greedy loop of Gonzalez is kept, but its two primitives are replaced by
robust counterparts:

* **Approx-Farthest** — the next center is the point whose distance to its
  currently assigned center is (approximately) maximal, found with Max-Adv
  (Algorithm 4) over the "distance to my assigned center" comparison view.
  One comparison costs one quadruplet query ``O(v_i, s_i, v_j, s_j)``.
* **Assign** — every point keeps an ``MCount`` score per center: the number
  of other centers the oracle believes are farther from the point.  The
  point is assigned to the center with the highest score, which is a
  ``(1 + mu)^2`` approximation of the closest center (Lemma 10.2).  Scores
  are maintained incrementally: adding a center costs one new quadruplet
  query per (point, existing center) pair, so the whole run charges
  ``O(n k^2)`` assignment queries as in Theorem 4.2.

With ``mu < 1/18`` the returned clustering is a ``(2 + O(mu))``
approximation of the optimal k-center objective with probability
``1 - delta`` (Theorem 4.2).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.kcenter.objective import ClusteringResult, check_k
from repro.maximum.adversarial import max_adversarial
from repro.oracles.base import AssignmentDistanceOracle, BaseQuadrupletOracle
from repro.rng import SeedLike, ensure_rng


def kcenter_adversarial(
    oracle: BaseQuadrupletOracle,
    k: int,
    points: Optional[Sequence[int]] = None,
    delta: float = 0.1,
    first_center: Optional[int] = None,
    farthest_iterations: Optional[int] = None,
    seed: SeedLike = None,
) -> ClusteringResult:
    """Greedy k-center with robust farthest search and assignment (Algorithm 6).

    Parameters
    ----------
    oracle:
        Noisy quadruplet oracle over the hidden metric.
    k:
        Number of centers.
    points:
        Records to cluster (default: every record of the oracle's space).
    delta:
        Overall failure probability; each Approx-Farthest call runs with
        ``delta / k``.
    first_center:
        Optional fixed initial center.
    farthest_iterations:
        Override of the repetition count ``t`` inside Max-Adv (the paper's
        experiments use ``t = 1``).
    seed:
        Seed for all randomised choices.
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
    # mcount[p][c] counts, for point p, how many *other* centers the oracle
    # believes are at least as far from p as center c is.
    mcount: Dict[int, Dict[int, int]] = {p: {first_center: 0} for p in points}

    per_call_delta = max(1e-6, delta / max(1, k - 1))
    if farthest_iterations is None:
        farthest_iterations = max(
            1, int(math.ceil(math.log(2.0 / per_call_delta)))
        )

    while len(centers) < k:
        center_set = set(centers)
        candidates = [p for p in points if p not in center_set]
        if not candidates:
            break

        # --- Approx-Farthest: point with maximal distance to its own center.
        view = AssignmentDistanceOracle(oracle, assignment)
        new_center = max_adversarial(
            candidates,
            view,
            delta=per_call_delta,
            n_iterations=farthest_iterations,
            seed=rng,
        )

        # --- Assign: update MCount scores with the new center and reassign.
        for p in points:
            if p == new_center or p in center_set:
                continue
            scores = mcount[p]
            scores[new_center] = 0
            for existing in centers:
                # Yes means d(existing, p) <= d(new_center, p): the existing
                # center wins this comparison, otherwise the new center does.
                if oracle.compare(existing, p, new_center, p):
                    scores[existing] += 1
                else:
                    scores[new_center] += 1
            best = max(scores.items(), key=lambda item: item[1])[0]
            assignment[p] = best
        centers.append(new_center)
        assignment[new_center] = new_center
        mcount[new_center] = {new_center: len(centers) - 1}

    for c in centers:
        assignment[c] = c
    n_queries = oracle.counter.charged_queries - queries_before
    return ClusteringResult(
        centers=centers,
        assignment=dict(assignment),
        n_queries=n_queries,
        meta={
            "noise_model": "adversarial",
            "delta": delta,
            "farthest_iterations": farthest_iterations,
        },
    )
