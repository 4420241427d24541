"""A mutable live-subset view over a static universe metric space.

The incremental layer models a mutating point set as a **universe** — a
static :class:`~repro.metric.space.MetricSpace` holding every record that
will ever exist, pre-generated by the seeded edit stream — plus a **live
set** of currently-inserted record ids.  Record ids are universe indices and
never change, so distances between live records are exactly the universe's
distances: both the incremental maintainers and the batch recomputes they
are tested against read the same floats, which is what makes bit-identical
equivalence achievable at all.

The view is itself a :class:`~repro.metric.space.MetricSpace` (over the
universe id range), delegating every distance query to the base space while
counting the scalar evaluations and batch rows requested.  Those counters
are the deterministic cost yardstick of the differential tests and the
incremental benchmark suite: an incremental repair must request strictly
fewer distance rows than the full recompute it replaces, and the counter is
how that claim is asserted rather than assumed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.metric.space import MetricSpace


class MutableSpaceView(MetricSpace):
    """Live-subset view over *base* with insert/delete and query accounting.

    Parameters
    ----------
    base:
        The universe space.  It stays immutable; the view only tracks which
        of its records are currently live.
    live:
        Initially live record ids, in insertion order (default: none).
    """

    def __init__(self, base: MetricSpace, live: Optional[Sequence[int]] = None):
        self.base = base
        self._live_list: List[int] = []
        self._live_set: set = set()
        #: Already-charged distances deposited by a maintainer for free reuse.
        self._prepaid: Dict[tuple, float] = {}
        #: Scalar ``distance`` evaluations requested through the view.
        self.scalar_evals = 0
        #: Rows requested via ``distances_from`` / ``pair_distances``.
        self.batch_rows = 0
        self.n_inserts = 0
        self.n_deletes = 0
        for i in live or ():
            self.insert(i)

    # -- mutation -------------------------------------------------------------

    def insert(self, i: int) -> int:
        """Activate universe record *i*; appended to the live order."""
        i = self._check_index(int(i))
        if i in self._live_set:
            raise InvalidParameterError(f"record {i} is already live")
        self._live_list.append(i)
        self._live_set.add(i)
        self.n_inserts += 1
        return i

    def delete(self, i: int) -> int:
        """Deactivate live record *i* (the universe record remains queryable)."""
        i = int(i)
        if i not in self._live_set:
            raise InvalidParameterError(f"record {i} is not live")
        self._live_list.remove(i)
        self._live_set.remove(i)
        self.n_deletes += 1
        return i

    def apply(self, edit) -> int:
        """Apply one :class:`~repro.incremental.edits.Edit`."""
        if edit.op == "insert":
            return self.insert(edit.ident)
        if edit.op == "delete":
            return self.delete(edit.ident)
        raise InvalidParameterError(f"unknown edit op {edit.op!r}")

    # -- prepaid distances -----------------------------------------------------

    def prepay(self, i: int, j: int, d: float) -> None:
        """Deposit an already-charged distance for later charge-free reuse.

        A maintainer that measured ``d(i, j)`` (and was charged for it) may
        deposit the value here; subsequent :meth:`distances_from` calls fill
        the ``(i, j)`` / ``(j, i)`` entries from the deposit instead of
        charging the base space again.  This is what keeps a probe-then-fall-
        back repair within the batch recompute's budget: measured-but-unused
        probe rows are reused, not re-bought.
        """
        self._prepaid[(int(i), int(j))] = float(d)
        self._prepaid[(int(j), int(i))] = float(d)

    def clear_prepaid(self) -> None:
        self._prepaid.clear()

    # -- live-set introspection ----------------------------------------------

    def live_ids(self) -> List[int]:
        """Live record ids in insertion order (a copy)."""
        return list(self._live_list)

    def is_live(self, i: int) -> bool:
        return int(i) in self._live_set

    @property
    def n_live(self) -> int:
        return len(self._live_list)

    def stats(self) -> Dict[str, int]:
        """Deterministic accounting snapshot (the difftest drivers' cost yardstick)."""
        return {
            "n_live": self.n_live,
            "n_inserts": self.n_inserts,
            "n_deletes": self.n_deletes,
            "scalar_evals": self.scalar_evals,
            "batch_rows": self.batch_rows,
            "total_evals": self.scalar_evals + self.batch_rows,
        }

    @property
    def total_evals(self) -> int:
        return self.scalar_evals + self.batch_rows

    # -- MetricSpace delegation (counted) --------------------------------------

    def __len__(self) -> int:
        return len(self.base)

    def distance(self, i: int, j: int) -> float:
        self.scalar_evals += 1
        return self.base.distance(i, j)

    def distances_from(
        self, i: int, candidates: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        if not self._prepaid:
            out = self.base.distances_from(i, candidates)
            self.batch_rows += len(out)
            return out
        if candidates is None:
            cands = np.arange(len(self.base))
        else:
            cands = np.asarray(candidates, dtype=int)
        i = int(i)
        out = np.empty(len(cands), dtype=float)
        missing = np.ones(len(cands), dtype=bool)
        for pos in range(len(cands)):
            d = self._prepaid.get((i, int(cands[pos])))
            if d is not None:
                out[pos] = d
                missing[pos] = False
        if missing.any():
            fresh = self.base.distances_from(i, cands[missing])
            self.batch_rows += len(fresh)
            out[missing] = fresh
        return out

    def pair_distances(self, i, j) -> np.ndarray:
        out = self.base.pair_distances(i, j)
        self.batch_rows += len(out)
        return out
