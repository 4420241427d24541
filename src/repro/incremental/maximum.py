"""Incremental Count-Max: maintain the all-pairs duel scores under edits.

Batch Count-Max (:func:`repro.maximum.count_max.count_max`) asks all
``m(m-1)/2`` pairwise comparisons and takes the record with the most wins.
Incrementally, only the duel paths an edit touches need re-running:

* **insert v** — one batched round of ``m`` duels ``(existing, v)``; every
  other pair's outcome is unchanged (answers are persistent).
* **delete v** — re-ask the ``m - 1`` duels involving *v* (all served from
  the oracle's answer cache, so nothing is charged) and subtract the wins
  they credited.  No O(m^2) score matrix is stored: the oracle's answer
  cache *is* the memory, which is exactly what the persistent-crowd model
  pays for.

``winner()`` resolves the maintained score table through the same
:func:`~repro.maximum.count_max.resolve_count_winner` the batch code uses
(winners in live insertion order, one seeded tie-break draw), so under a
shared seed the incremental winner is bit-identical to a batch recompute
over the same live set — the differential tests assert exactly that.

The incremental path requires ``cache_answers=True`` on the oracle (the
default): with caching off, delete-time re-asks would be charged and — under
non-persistent noise — could even draw fresh answers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import EmptyInputError, InvalidParameterError
from repro.maximum.count_max import resolve_count_winner
from repro.oracles.base import BaseComparisonOracle
from repro.rng import SeedLike


class IncrementalCountMax:
    """Maintain Count-Max scores over a mutating item set.

    Parameters
    ----------
    oracle:
        A comparison oracle with answer caching enabled.  All duels — initial,
        insert-time and delete-time — go through it, so its persistence
        guarantees are what make maintained scores equal batch scores.
    items:
        Initially live items, inserted in order.
    seed:
        Default tie-break seed for :meth:`winner`.
    """

    def __init__(
        self,
        oracle: BaseComparisonOracle,
        items: Sequence[int] = (),
        seed: SeedLike = None,
    ):
        if getattr(oracle, "cache_answers", True) is False:
            raise InvalidParameterError(
                "IncrementalCountMax requires an answer-caching oracle "
                "(cache_answers=True); delete-time re-asks must be free and "
                "consistent"
            )
        self._oracle = oracle
        self._seed = seed
        self._items: List[int] = []
        self._scores: Dict[int, int] = {}
        self.n_duels = 0
        for i in items:
            self.insert(i)

    # -- introspection --------------------------------------------------------

    @property
    def items(self) -> List[int]:
        """Live items in insertion order (a copy)."""
        return list(self._items)

    def scores(self) -> Dict[int, int]:
        """Maintained Count scores, keyed in live insertion order."""
        return {i: self._scores[i] for i in self._items}

    def __len__(self) -> int:
        return len(self._items)

    # -- edits ----------------------------------------------------------------

    def insert(self, v: int) -> None:
        """Add item *v*: one batched duel round against every live item."""
        v = int(v)
        if v in self._scores:
            raise InvalidParameterError(f"item {v} is already live")
        if self._items:
            arr = np.asarray(self._items, dtype=np.int64)
            # Orientation (existing, new) matches the batch triu pair order:
            # v appends to the end of the live order, so batch recompute asks
            # every one of these pairs the same way round.
            answers = self._oracle.compare_batch(arr, np.full(len(arr), v))
            self.n_duels += len(arr)
            # Yes means value(a) <= value(v): v wins; No: a wins.
            self._scores[v] = int(np.count_nonzero(answers))
            for a in arr[~answers]:
                self._scores[int(a)] += 1
        else:
            self._scores[v] = 0
        self._items.append(v)

    def delete(self, v: int) -> None:
        """Remove item *v*, reversing the wins its duels credited.

        The duels are re-asked through the oracle — cache hits, charged
        nothing — rather than read from a stored matrix.
        """
        v = int(v)
        if v not in self._scores:
            raise InvalidParameterError(f"item {v} is not live")
        pos = self._items.index(v)
        before = np.asarray(self._items[:pos], dtype=np.int64)
        after = np.asarray(self._items[pos + 1 :], dtype=np.int64)
        if len(before):
            answers = self._oracle.compare_batch(before, np.full(len(before), v))
            self.n_duels += len(before)
            # No meant `a` won that duel; take the win back.
            for a in before[~answers]:
                self._scores[int(a)] -= 1
        if len(after):
            answers = self._oracle.compare_batch(np.full(len(after), v), after)
            self.n_duels += len(after)
            # Yes meant `b` won that duel; take the win back.
            for b in after[answers]:
                self._scores[int(b)] -= 1
        del self._scores[v]
        self._items.pop(pos)

    # -- output ---------------------------------------------------------------

    def winner(self, seed: SeedLike = None) -> int:
        """The current Count-Max winner (batch-identical under a shared seed)."""
        if not self._items:
            raise EmptyInputError("IncrementalCountMax has no live items")
        return resolve_count_winner(
            self.scores(), seed=self._seed if seed is None else seed
        )
