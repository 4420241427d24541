"""Incremental dendrogram maintenance: replay merges above the first affected step.

The exact-linkage merge sequence is deterministic given the pairwise
distances, which lets an edit be located *within* the sequence instead of
invalidating all of it:

* **insert v** — walk the cached merge sequence once, maintaining the
  linkage between v's singleton and every active cluster (Lance–Williams,
  O(m) per step).  The first step whose merge value is reached or beaten by
  v's best linkage is where v could first change the answer; everything
  before it is provably untouched (a pair involving v with a strictly larger
  value can never win the best-pair scan).
* **delete p** — the first cached step that merges p's cluster (p still a
  singleton, so its rep is p itself) is the first affected step; earlier
  merges neither contain p nor ever lost a scan to a pair involving p.

``result()`` then *replays* the still-valid prefix through
:func:`repro.hierarchical.exact_linkage.linkage_merge_loop` — the same loop
the batch code runs, with the O(m^2) best-pair scan skipped for replayed
steps — and recomputes only the suffix.  Replay and recompute therefore
produce the same :class:`~repro.hierarchical.dendrogram.Dendrogram` type
with the same witness bookkeeping, and the differential tests assert full
``MergeStep``-for-``MergeStep`` equality against a from-scratch
:func:`~repro.hierarchical.exact_linkage.exact_linkage` at every edit.

The pairwise distance pool is maintained incrementally (an insert evaluates
``m`` new distances, a delete evaluates none), so between checks the
maintainer charges O(m) distance evaluations per edit where every batch
recompute charges O(m^2).

Bookkeeping is in **rep space**: a cached cluster is identified by the
minimum universe id among its members, which is stable across the
position renumbering that inserts and deletes cause.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.hierarchical.dendrogram import Dendrogram
from repro.hierarchical.exact_linkage import _LINKAGES, linkage_merge_loop
from repro.incremental.view import MutableSpaceView


def _pair_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


class IncrementalLinkage:
    """Maintain a single/complete-linkage dendrogram over a mutable view.

    The maintainer owns the view's live set: apply edits through
    :meth:`insert` / :meth:`delete`, read the dendrogram with
    :meth:`result`.  Leaves of the returned dendrogram are indexed by
    position in the current live order, exactly like the batch code called
    with ``points=view.live_ids()``.
    """

    def __init__(self, view: MutableSpaceView, linkage: str = "single"):
        if linkage not in _LINKAGES:
            raise InvalidParameterError(
                f"linkage must be one of {_LINKAGES}, got {linkage!r}"
            )
        self.view = view
        self.linkage = linkage
        self._better = min if linkage == "single" else max
        #: Distances between live universe-id pairs (the incremental pool).
        self._pair_dist: Dict[Tuple[int, int], float] = {}
        #: Cached merge sequence in rep space, from the last result().
        self._cached_merges: List[Tuple[int, int]] = []
        self._cached_values: List[float] = []
        #: Leading cached steps still known-valid under the pending edits.
        self._valid = 0
        self.n_replayed = 0
        self.n_recomputed = 0
        seed_ids = view.live_ids()
        for pos, i in enumerate(seed_ids):
            for j in seed_ids[:pos]:
                self._pair_dist[_pair_key(i, j)] = view.distance(i, j)

    # -- edits ----------------------------------------------------------------

    def insert(self, v: int) -> None:
        existing = self.view.live_ids()
        v = self.view.insert(v)
        dists = {x: self.view.distance(v, x) for x in existing}
        self._valid = min(self._valid, self._first_affected_by_insert(dists))
        for x, d in dists.items():
            self._pair_dist[_pair_key(v, x)] = d

    def delete(self, p: int) -> None:
        p = self.view.delete(p)
        for j in range(self._valid):
            a, b = self._cached_merges[j]
            if a == p or b == p:
                self._valid = j
                break
        for x in self.view.live_ids():
            self._pair_dist.pop(_pair_key(p, x), None)

    def _first_affected_by_insert(self, dists: Dict[int, float]) -> int:
        """First cached step the new point could perturb (conservative on ties).

        Walks the valid prefix maintaining ``lv[rep]`` — the linkage between
        the new singleton and each active cluster.  All current live points
        are singletons at the walk's start: cached leaves because the cached
        run started from singletons, later pending inserts because their own
        walks proved they stay singletons through the valid prefix.
        """
        if not self._valid:
            return 0
        lv = dict(dists)
        for j in range(self._valid):
            if lv and min(lv.values()) <= self._cached_values[j]:
                return j
            a, b = self._cached_merges[j]
            merged = self._better(lv[a], lv[b])
            winner, loser = (a, b) if a < b else (b, a)
            lv[winner] = merged
            del lv[loser]
        return self._valid

    # -- output ---------------------------------------------------------------

    def result(self) -> Dendrogram:
        """The current dendrogram (batch-identical; replays the valid prefix)."""
        live = self.view.live_ids()
        n = len(live)
        if n == 0:
            raise EmptyInputError("IncrementalLinkage has no live points")
        pos = {ident: p for p, ident in enumerate(live)}

        dist: Dict[Tuple[int, int], float] = {}
        witness: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for i in range(n):
            for j in range(i + 1, n):
                dist[(i, j)] = self._pair_dist[_pair_key(live[i], live[j])]
                witness[(i, j)] = (i, j)

        # Convert the valid rep-space prefix into position-space cluster ids
        # as the merge loop will assign them (merges create ids n, n+1, ...).
        prefix: List[Tuple[int, int]] = []
        ids = dict(pos)
        next_id = n
        for a_rep, b_rep in self._cached_merges[: self._valid]:
            a, b = ids[a_rep], ids[b_rep]
            prefix.append((a, b))
            winner, loser = (a_rep, b_rep) if a_rep < b_rep else (b_rep, a_rep)
            ids[winner] = next_id
            del ids[loser]
            next_id += 1

        dendrogram = linkage_merge_loop(
            live, dist, witness, self.linkage, n - 1, prefix=prefix
        )
        self.n_replayed += len(prefix)
        self.n_recomputed += max(len(dendrogram.merges) - len(prefix), 0)

        # Refresh the cache in rep space (rep = min universe id of members).
        rep_of: Dict[int, int] = {i: live[i] for i in range(n)}
        self._cached_merges = []
        self._cached_values = []
        for step in dendrogram.merges:
            left_rep, right_rep = rep_of[step.left], rep_of[step.right]
            self._cached_merges.append((left_rep, right_rep))
            self._cached_values.append(step.true_distance)
            rep_of[step.merged] = min(left_rep, right_rep)
        self._valid = len(self._cached_merges)
        return dendrogram

    def stats(self) -> dict:
        return {
            "n_replayed": self.n_replayed,
            "n_recomputed": self.n_recomputed,
        }
