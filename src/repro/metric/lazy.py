"""Lazy, bounded-memory distance evaluation for large point clouds.

The dense memoisation in :class:`~repro.metric.space.PointCloudSpace` keeps a
full ``(n, n)`` matrix, which stops being an option long before the paper's
headline scales (n = 50,000 would need ~20 GB).  This module provides the
large-n alternative: the virtual distance matrix is partitioned into square
*blocks* of side ``block_size``, and only a bounded number of materialised
blocks is kept in an LRU cache.  Everything else is computed on demand, in
chunks, so peak extra memory is ``O(block cache + chunk)`` regardless of n.

Access patterns map onto three strategies:

* **Dense-ish batches** — when one ``pair_distances`` call asks for at least
  ``materialize_threshold`` distinct cells inside the same block, the whole
  block is materialised once (amortising to at most ``block_size`` distance
  evaluations per distinct cell) and cached for future calls.
* **Scattered pairs** — cells that do not justify a block are computed
  directly with the vectorised distance function, ``pair_chunk`` cells at a
  time, bounding the temporary arrays.
* **Rows** — ``distances_from`` (the k-center / nearest-neighbour hot path)
  computes the row directly in candidate chunks; rows are transient by
  nature (greedy passes never revisit one), so they bypass the block cache.

``pair_distances`` first collapses each batch to its distinct upper-block
cells, so a pair requested many times in one call is evaluated once and
counts once toward the threshold.

:class:`DiskBlockBackend` extends the same machinery past what an
in-memory cache can amortise: evicted blocks and computed rows *spill* to
memory-mapped :class:`~repro.storage.blockfile.BlockStorage` files and are
**reloaded instead of recomputed** on re-access, which is what makes
n = 1,000,000 workloads tractable at flat RSS (the disk-backend benchmark
gate checks the reload counters).

Results are bit-identical to the dense backend for the broadcastable
distance functions: blocks, chunks, rows and scalars all reduce over the
same contiguous ``axis=-1`` slices, and every built-in distance is
symmetric under argument swap, so canonicalising a pair to its
upper-triangle block — or serving it from a stored row — cannot change
the value.  :mod:`tests.test_metric_lazy` and :mod:`tests.test_metric_disk`
assert the exact equality.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.metric.distances import cross_distances
from repro.storage import BlockStorage

#: Default side length of a materialised distance block.
DEFAULT_BLOCK_SIZE = 1024

#: Default number of blocks the LRU cache retains.
DEFAULT_MAX_BLOCKS = 32

#: Cap on the number of pairs evaluated per direct (non-block) chunk.
DEFAULT_PAIR_CHUNK = 65536

#: Byte budget for the broadcast temporary while filling one block.
_BLOCK_FILL_BUDGET_BYTES = 8 * 1024 * 1024


class BlockLRUCache:
    """LRU cache of materialised distance-matrix blocks.

    Keys are ``(block_row, block_col)`` tuples with ``block_row <=
    block_col`` (the lazy backend canonicalises pairs into the upper
    triangle); values are dense float blocks.  The cache never holds more
    than ``max_blocks`` blocks, so its memory is bounded by
    :attr:`capacity_bytes` independent of the number of records.

    An optional :attr:`on_evict` callback observes every eviction with the
    evicted ``(key, block)`` — the hook the disk-spill backend uses to
    write blocks out instead of forgetting them.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_blocks: int = DEFAULT_MAX_BLOCKS,
    ):
        block_size = int(block_size)
        max_blocks = int(max_blocks)
        if block_size < 1:
            raise InvalidParameterError(f"block_size must be positive, got {block_size}")
        if max_blocks < 1:
            raise InvalidParameterError(f"max_blocks must be positive, got {max_blocks}")
        self.block_size = block_size
        self.max_blocks = max_blocks
        self._blocks: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Called as ``on_evict(key, block)`` for every evicted block.
        self.on_evict: Optional[Callable[[Tuple[int, int], np.ndarray], None]] = None

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._blocks

    def get(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        """Return the cached block for *key* (and mark it recently used), or ``None``."""
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        return block

    def put(self, key: Tuple[int, int], block: np.ndarray) -> None:
        """Insert *block* under *key*, evicting least-recently-used blocks if full."""
        self._blocks[key] = block
        self._blocks.move_to_end(key)
        while len(self._blocks) > self.max_blocks:
            evicted_key, evicted = self._blocks.popitem(last=False)
            self.evictions += 1
            obs.inc("metric.block_evictions")
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted)

    def clear(self) -> None:
        """Drop every cached block (statistics are kept)."""
        self._blocks.clear()

    @property
    def capacity_bytes(self) -> int:
        """Upper bound on cached-block memory: ``max_blocks * block_size**2 * 8``."""
        return self.max_blocks * self.block_size * self.block_size * 8

    @property
    def current_bytes(self) -> int:
        """Memory currently held by cached blocks."""
        return sum(block.nbytes for block in self._blocks.values())

    def stats(self) -> Dict[str, int]:
        """Plain-dict snapshot of the cache counters (for report rows)."""
        return {
            "blocks": len(self._blocks),
            "block_size": self.block_size,
            "max_blocks": self.max_blocks,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "capacity_bytes": self.capacity_bytes,
        }


class LazyBlockBackend:
    """Block-wise distance evaluation over a coordinate matrix.

    Parameters
    ----------
    points:
        ``(n, d)`` float coordinate matrix (not copied).
    distance_fn:
        A broadcastable distance callable from :mod:`repro.metric.distances`.
        Only functions whose batched results are bit-identical to their
        scalar results may be used here; :class:`~repro.metric.space.PointCloudSpace`
        enforces that before constructing a backend.
    block_size, max_blocks:
        Geometry and capacity of the :class:`BlockLRUCache`.
    pair_chunk:
        Maximum number of pairs (or row candidates) evaluated per direct
        vectorised chunk; bounds temporary memory at ``O(pair_chunk * d)``.
    materialize_threshold:
        Minimum number of distinct same-block cells in a single
        ``pair_distances`` call that justifies materialising the block
        (default: ``block_size``, i.e. at most ``block_size`` distance
        evaluations per distinct cell before amortisation).
    """

    def __init__(
        self,
        points: np.ndarray,
        distance_fn: Callable,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_blocks: int = DEFAULT_MAX_BLOCKS,
        pair_chunk: int = DEFAULT_PAIR_CHUNK,
        materialize_threshold: Optional[int] = None,
    ):
        pair_chunk = int(pair_chunk)
        if pair_chunk < 1:
            raise InvalidParameterError(f"pair_chunk must be positive, got {pair_chunk}")
        self.points = points
        self.distance_fn = distance_fn
        self.cache = BlockLRUCache(block_size=block_size, max_blocks=max_blocks)
        self.pair_chunk = pair_chunk
        if materialize_threshold is None:
            materialize_threshold = self.cache.block_size
        self.materialize_threshold = max(1, int(materialize_threshold))
        self.direct_pairs = 0
        self.materialized_blocks = 0

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_blocks(self) -> int:
        """Number of blocks per matrix side."""
        size = self.cache.block_size
        return (self.n_points + size - 1) // size

    def _get_block(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        """Look up an already-materialised block (cache only here).

        The single seam between the in-memory and the disk-spill backends:
        :class:`DiskBlockBackend` overrides this to reload spilled blocks
        from its block file on a cache miss, so every serving path — pair
        batches and scalar lookups alike — reloads instead of recomputing
        without knowing where the block came from.
        """
        return self.cache.get(key)

    def _fill_block(self, key: Tuple[int, int]) -> np.ndarray:
        """Materialise and cache the block at *key*; returns the block."""
        size = self.cache.block_size
        n = self.n_points
        bi, bj = key
        rows = self.points[bi * size : min((bi + 1) * size, n)]
        cols = self.points[bj * size : min((bj + 1) * size, n)]
        block = np.empty((len(rows), len(cols)), dtype=float)
        # Fill in row stripes so the (stripe, cols, d) broadcast temporary
        # stays under the byte budget even for wide blocks.
        dim = max(1, self.points.shape[1])
        stripe = max(1, _BLOCK_FILL_BUDGET_BYTES // (max(1, len(cols)) * dim * 8))
        for start in range(0, len(rows), stripe):
            block[start : start + stripe] = cross_distances(
                self.distance_fn, rows[start : start + stripe], cols
            )
        self.cache.put(key, block)
        self.materialized_blocks += 1
        obs.inc("metric.blocks_materialized")
        return block

    def _compute_direct(
        self, ii: np.ndarray, jj: np.ndarray, positions: np.ndarray, out: np.ndarray
    ) -> None:
        """Evaluate scattered pairs at *positions* directly, in bounded chunks."""
        for start in range(0, len(positions), self.pair_chunk):
            pos = positions[start : start + self.pair_chunk]
            out[pos] = self.distance_fn(self.points[ii[pos]], self.points[jj[pos]])
        self.direct_pairs += len(positions)

    def pair_distances(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Distances for paired indices ``(i[k], j[k])`` with bounded memory.

        Pairs are canonicalised into the upper block triangle (every built-in
        distance is symmetric) and collapsed to their distinct cells, so a
        repeated pair is evaluated once.  Distinct cells are grouped by
        block and served from cached blocks where possible; blocks holding
        at least ``materialize_threshold`` distinct cells are materialised,
        the rest are computed directly in chunks.  The answers are scattered
        back to every requested position.
        """
        if len(i) == 0:
            return np.empty(0, dtype=float)
        size = self.cache.block_size
        swap = (i // size) > (j // size)
        ii = np.where(swap, j, i)
        jj = np.where(swap, i, j)
        # Count-Max asks O(q, x, q, y) for every sample pair (x, y), so half
        # a million requested pairs can hold a thousand distinct cells.
        _, first, inverse = np.unique(
            ii.astype(np.int64, copy=False) * self.n_points + jj,
            return_index=True,
            return_inverse=True,
        )
        ii, jj = ii[first], jj[first]
        m = len(ii)
        out = np.empty(m, dtype=float)
        bi = ii // size
        bj = jj // size
        block_ids = bi * self.n_blocks + bj
        order = np.argsort(block_ids, kind="stable")
        ids_sorted = block_ids[order]
        starts = np.flatnonzero(np.r_[True, ids_sorted[1:] != ids_sorted[:-1]])
        ends = np.r_[starts[1:], m]
        direct_groups = []
        for start, end in zip(starts, ends):
            group = order[start:end]
            key = divmod(int(ids_sorted[start]), self.n_blocks)
            block = self._get_block(key)
            if block is None and (end - start) >= self.materialize_threshold:
                block = self._fill_block(key)
            if block is None:
                direct_groups.append(group)
            else:
                out[group] = block[ii[group] - key[0] * size, jj[group] - key[1] * size]
        if direct_groups:
            positions = (
                np.concatenate(direct_groups) if len(direct_groups) > 1 else direct_groups[0]
            )
            self._compute_direct(ii, jj, positions, out)
        return out[inverse]

    def distances_from(self, i: int, candidates: np.ndarray) -> np.ndarray:
        """Distances from record *i* to each candidate, computed in chunks.

        Rows bypass the block cache: the callers that need rows (greedy
        k-center, exact neighbour scans) visit each row at most once, so
        caching them would only evict blocks that scattered pair queries
        still profit from.
        """
        out = np.empty(len(candidates), dtype=float)
        row = self.points[i]
        for start in range(0, len(candidates), self.pair_chunk):
            idx = candidates[start : start + self.pair_chunk]
            out[start : start + len(idx)] = self.distance_fn(row, self.points[idx])
        return out

    def distance(self, i: int, j: int) -> float:
        """Scalar distance; served from a cached block when one covers the pair."""
        size = self.cache.block_size
        a, b = (i, j) if i // size <= j // size else (j, i)
        key = (a // size, b // size)
        block = self._get_block(key)
        if block is not None:
            return float(block[a - key[0] * size, b - key[1] * size])
        return float(self.distance_fn(self.points[a], self.points[b]))

    def stats(self) -> Dict[str, int]:
        """Cache statistics plus backend-level counters."""
        stats = self.cache.stats()
        stats["direct_pairs"] = self.direct_pairs
        stats["materialized_blocks"] = self.materialized_blocks
        return stats


class DiskBlockBackend(LazyBlockBackend):
    """Block-wise evaluation that spills to disk and reloads instead of recomputing.

    The in-memory lazy backend forgets every block the LRU cache evicts, so
    workloads whose working set exceeds the cache *recompute* distances —
    cheap at n = 50,000, prohibitive at n = 1,000,000.  This backend keeps
    the same access strategies and the same bit-identical values but backs
    the cache with two :class:`~repro.storage.blockfile.BlockStorage` spill
    files (fixed-size mmap slots, per-slot CRC, LM-DiskANN's node-block
    layout):

    * ``blocks.rblk`` — square distance blocks, written once on their first
      eviction (block contents never change, so re-evictions are free) and
      reloaded through :meth:`_get_block` on any later miss;
    * ``rows.rblk`` — full distance rows (one slot holds ``n`` float64s).
      A row is stored when a full-sweep :meth:`distances_from` computes it,
      or when the *cumulative* constant-record ``pair_distances`` traffic
      pinned on a single record reaches ``row_threshold`` pairs (the
      Count-Max access pattern: every tournament round re-asks the query
      record in sample-sized batches).  Every later row-shaped or
      constant-record request is served from the stored row.

    ``reloads`` counts every serve from a spill file — the
    reload-not-recompute evidence the disk-backend gate checks.  Spill files
    live in *spill_dir* (a private temp directory by default, removed when
    the backend is garbage-collected).
    """

    def __init__(
        self,
        points: np.ndarray,
        distance_fn: Callable,
        block_size: int = DEFAULT_BLOCK_SIZE,
        max_blocks: int = DEFAULT_MAX_BLOCKS,
        pair_chunk: int = DEFAULT_PAIR_CHUNK,
        materialize_threshold: Optional[int] = None,
        spill_dir: Optional[Path | str] = None,
        row_threshold: Optional[int] = None,
    ):
        super().__init__(
            points,
            distance_fn,
            block_size=block_size,
            max_blocks=max_blocks,
            pair_chunk=pair_chunk,
            materialize_threshold=materialize_threshold,
        )
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-metric-spill-")
            # Owned temp dir: removed at GC.  The finalizer must not
            # reference self, or it would pin the backend alive forever.
            self._spill_finalizer = weakref.finalize(
                self, shutil.rmtree, spill_dir, ignore_errors=True
            )
        else:
            Path(spill_dir).mkdir(parents=True, exist_ok=True)
            self._spill_finalizer = None
        self.spill_dir = Path(spill_dir)
        size = self.cache.block_size
        self._block_file = BlockStorage.create(
            self.spill_dir / "blocks.rblk", slot_size=size * size * 8
        )
        self._row_file: Optional[BlockStorage] = None  # one slot = n float64s
        self._block_slot: Dict[Tuple[int, int], int] = {}
        self._row_slot: Dict[int, int] = {}
        if row_threshold is None:
            # Storing a row costs n evaluations; amortise it over at least
            # n/4 served pairs (<= 4 evaluations per pair before reuse).
            row_threshold = max(1, self.n_points // 4)
        self.row_threshold = max(1, int(row_threshold))
        self._anchor_demand: Dict[int, int] = {}
        self.spills = 0
        self.reloads = 0
        self.rows_stored = 0
        self.cache.on_evict = self._spill_block

    # -- square-block spill path ----------------------------------------------

    def _block_shape(self, key: Tuple[int, int]) -> Tuple[int, int]:
        size = self.cache.block_size
        n = self.n_points
        bi, bj = key
        return (min(size, n - bi * size), min(size, n - bj * size))

    def _spill_block(self, key: Tuple[int, int], block: np.ndarray) -> None:
        """Eviction hook: write the block out unless it is already on disk.

        Blocks are immutable once materialised, so a block evicted, reloaded
        and evicted again never needs a second write.
        """
        if key in self._block_slot:
            return
        payload = np.ascontiguousarray(block, dtype=float).tobytes()
        self._block_slot[key] = self._block_file.append(payload)
        self.spills += 1
        obs.inc("metric.spills")

    def _get_block(self, key: Tuple[int, int]) -> Optional[np.ndarray]:
        block = self.cache.get(key)
        if block is not None:
            return block
        slot = self._block_slot.get(key)
        if slot is None:
            return None
        payload = self._block_file.read_slot(slot)
        if payload is None:  # pragma: no cover - slots are written before mapped
            return None
        block = np.frombuffer(payload, dtype=float).reshape(self._block_shape(key))
        self.reloads += 1
        obs.inc("metric.reloads")
        # Re-admit to the cache; the eviction this may trigger is a no-op
        # write (the evicted block is already on disk).
        self.cache.put(key, block)
        return block

    # -- row spill path --------------------------------------------------------

    def _load_row(self, i: int) -> Optional[np.ndarray]:
        """The stored full distance row of record *i*, or ``None``."""
        slot = self._row_slot.get(i)
        if slot is None:
            return None
        payload = self._row_file.read_slot(slot)
        if payload is None:  # pragma: no cover - slots are written before mapped
            return None
        self.reloads += 1
        obs.inc("metric.reloads")
        return np.frombuffer(payload, dtype=float)

    def _store_row(self, i: int, row: np.ndarray) -> None:
        if i in self._row_slot:
            return
        if self._row_file is None:
            self._row_file = BlockStorage.create(
                self.spill_dir / "rows.rblk", slot_size=self.n_points * 8
            )
        payload = np.ascontiguousarray(row, dtype=float).tobytes()
        self._row_slot[i] = self._row_file.append(payload)
        self.rows_stored += 1

    def distances_from(self, i: int, candidates: np.ndarray) -> np.ndarray:
        """Row-shaped distances, served from (and feeding) the row store.

        A stored row answers any candidate subset by fancy indexing — the
        values are bit-identical because every batchable distance reduces
        each element over the same contiguous ``axis=-1`` slice regardless
        of how requests are chunked.  A full sweep over a fresh row computes
        it once (the inherited chunked path) and stores it.
        """
        i = int(i)
        row = self._load_row(i)
        if row is not None:
            return row[candidates]
        out = super().distances_from(i, candidates)
        if len(candidates) == self.n_points and np.array_equal(
            candidates, np.arange(self.n_points)
        ):
            self._store_row(i, out)
        return out

    def pair_distances(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Paired distances, served from stored rows wherever one applies.

        Two row fast paths, in order:

        * **constant-record batches** — when every pair shares one record
          (the quadruplet oracle's "compare everything against the query"
          shape), the batch is a masked distance row: serve it from the
          stored row, materialising the row once the record's cumulative
          constant-batch demand reaches ``row_threshold`` pairs (enough to
          amortise the n evaluations the row costs);
        * **stored-anchor pairs** — any remaining pair whose left or right
          record already has a stored row (k-center objective evaluation:
          every point against its assigned center, whose row the greedy
          traversal computed) is answered from that row.

        Whatever is left falls through to the inherited block/chunk strategy
        backed by the spill file.  Rows are bit-identical to direct
        evaluation (same contiguous ``axis=-1`` reduction), so the split
        never changes a value.
        """
        m = len(i)
        if m:
            for const, other in ((i, j), (j, i)):
                anchor = int(const[0])
                if not (const == anchor).all():
                    continue
                row = self._load_row(anchor)
                if row is None:
                    # Demand is cumulative across batches: Count-Max re-asks
                    # the same anchor in ~sample_size/2-pair rounds for the
                    # whole tournament, so no single batch reaches the
                    # threshold but the anchor's total traffic dwarfs it.
                    demand = self._anchor_demand.get(anchor, 0) + m
                    if demand >= self.row_threshold:
                        row = super().distances_from(
                            anchor, np.arange(self.n_points)
                        )
                        self._store_row(anchor, row)
                        self._anchor_demand.pop(anchor, None)
                    else:
                        self._anchor_demand[anchor] = demand
                if row is not None:
                    return np.asarray(row[other], dtype=float)
                break  # constant but demand too low to justify the row yet
        if m and self._row_slot:
            stored = np.fromiter(self._row_slot, dtype=np.int64)
            out = np.empty(m, dtype=float)
            unresolved = np.ones(m, dtype=bool)
            for const, other in ((i, j), (j, i)):
                mask = unresolved & np.isin(const, stored)
                if not mask.any():
                    continue
                for anchor in np.unique(const[mask]):
                    row = self._load_row(int(anchor))
                    sel = mask & (const == anchor)
                    out[sel] = row[other[sel]]
                unresolved &= ~mask
            if not unresolved.all():
                if unresolved.any():
                    out[unresolved] = super().pair_distances(
                        i[unresolved], j[unresolved]
                    )
                return out
        return super().pair_distances(i, j)

    # -- lifecycle / observability --------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Inherited cache counters plus the spill/reload evidence."""
        stats = super().stats()
        stats["spills"] = self.spills
        stats["reloads"] = self.reloads
        stats["rows_stored"] = self.rows_stored
        stats["spill_bytes"] = self._block_file.size_bytes + (
            0 if self._row_file is None else self._row_file.size_bytes
        )
        return stats

    def close(self) -> None:
        """Close the spill files (and delete an owned temp spill directory)."""
        self.cache.on_evict = None
        self.cache.clear()
        self._block_file.close()
        if self._row_file is not None:
            self._row_file.close()
        if self._spill_finalizer is not None:
            self._spill_finalizer()
