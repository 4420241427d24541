"""Incremental greedy k-center: localized repair with a bounded fallback.

The greedy farthest-point traversal is deterministic given the live order
and the first center, which makes edits cheap to classify:

* **insert v** — compute ``d(v, c)`` for each existing center (one batched
  row of ``<= k`` distances).  If at every round *t* the running minimum
  ``min_{s < t} d(v, c_s)`` does not strictly exceed the value with which
  center *t* was selected, *v* never becomes the farthest point, the whole
  traversal is provably unchanged and the repair is just assigning *v* to
  its nearest center (O(k) work).  Otherwise the traversal changes at some
  round and the maintainer falls back to one full recompute — the *bounded*
  fallback: never worse than the batch path it replaces.
* **delete of a non-center** — the traversal is provably unchanged (argmax
  positions only ever land on centers, and removing a non-center cannot
  promote a smaller value): drop the point's assignment row, O(1) distance
  work.
* **delete of a center (or the anchor)** — recompute.

The fallback runs :func:`repro.kcenter.greedy_exact.greedy_trace` — the
*same* loop the batch code runs — with the first live point pinned as the
anchor, so results are bit-identical to
:func:`~repro.kcenter.greedy_exact.greedy_kcenter_exact` called with
``first_center=live[0]`` on the same view, which the differential tests
assert at every step.

The unchanged-traversal argument depends on two exact properties of the
batch loop: ``np.argmax`` returns the *first* maximising position (and an
inserted point appends to the end of the live order, so it must be
*strictly* farther to win a round), and assignment updates use a strict
``<`` (so a tying new point never steals an assignment).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import EmptyInputError
from repro.incremental.view import MutableSpaceView
from repro.kcenter.greedy_exact import GreedyTrace, greedy_trace
from repro.kcenter.objective import ClusteringResult, check_k


class IncrementalGreedyKCenter:
    """Maintain a greedy k-center clustering over a :class:`MutableSpaceView`.

    The maintainer owns the view's live set: apply edits through
    :meth:`insert` / :meth:`delete`, read the clustering with :meth:`result`.
    The effective k is ``min(k, n_live)`` — the clustering grows with the
    live set until *k* centers fit.
    """

    def __init__(self, view: MutableSpaceView, k: int):
        self.view = view
        self.k = check_k(k)
        self._trace: Optional[GreedyTrace] = None
        self.n_fallbacks = 0
        self.n_fast_inserts = 0
        self.n_fast_deletes = 0
        if view.n_live:
            self._recompute()

    # -- introspection --------------------------------------------------------

    @property
    def k_eff(self) -> int:
        return min(self.k, self.view.n_live)

    @property
    def centers(self) -> List[int]:
        return list(self._trace.centers) if self._trace else []

    def stats(self) -> dict:
        return {
            "n_fallbacks": self.n_fallbacks,
            "n_fast_inserts": self.n_fast_inserts,
            "n_fast_deletes": self.n_fast_deletes,
        }

    # -- edits ----------------------------------------------------------------

    def _recompute(self) -> None:
        live = self.view.live_ids()
        self._trace = greedy_trace(self.view, self.k_eff, live, first_center=live[0])
        self.n_fallbacks += 1

    def insert(self, v: int) -> None:
        v = self.view.insert(v)
        trace = self._trace
        if trace is None:
            self._recompute()
            return
        if len(trace.centers) < self.k_eff:
            # The live set was below k (or stopped early): the traversal
            # wants another center, which only a recompute can pick.
            self._recompute()
            return
        center_arr = np.asarray(trace.centers, dtype=int)
        d_v = self.view.distances_from(v, center_arr)
        # Walk the rounds: at round t the candidate value of v is its distance
        # to the first t centers; v perturbs the traversal iff it strictly
        # beats the value center t was selected with (argmax picks the first
        # maximum and v sits at the end of the live order, so ties lose).
        running = float(d_v[0])
        nearest = int(center_arr[0])
        for t, sel_value in enumerate(trace.selection_values, start=1):
            if running > sel_value:
                # The probe row was charged but the traversal changes; deposit
                # it so the fallback recompute reuses rather than re-buys it.
                # The recompute provably re-selects v as a center (v strictly
                # won round t), and v's center row alone refunds all k probe
                # entries — so probe + recompute never exceeds the batch cost.
                for c, d in zip(center_arr, d_v):
                    self.view.prepay(int(c), v, float(d))
                try:
                    self._recompute()
                finally:
                    self.view.clear_prepaid()
                return
            d_t = float(d_v[t])
            if d_t < running:
                running = d_t
                nearest = int(center_arr[t])
        # Traversal unchanged: extend the assignment arrays with v's row.
        trace.points.append(v)
        trace.dist_to_centers = np.append(trace.dist_to_centers, running)
        trace.nearest_center = np.append(trace.nearest_center, nearest)
        self.n_fast_inserts += 1

    def delete(self, v: int) -> None:
        v = self.view.delete(v)
        trace = self._trace
        if self.view.n_live == 0:
            self._trace = None
            return
        if trace is None or v in trace.centers:
            self._recompute()
            return
        # Non-center delete: the traversal is unchanged; drop v's row.
        pos = trace.points.index(v)
        trace.points.pop(pos)
        trace.dist_to_centers = np.delete(trace.dist_to_centers, pos)
        trace.nearest_center = np.delete(trace.nearest_center, pos)
        self.n_fast_deletes += 1

    # -- output ---------------------------------------------------------------

    def result(self) -> ClusteringResult:
        """The current clustering, as the batch result type."""
        if self._trace is None:
            raise EmptyInputError("IncrementalGreedyKCenter has no live points")
        return self._trace.result()
