"""Persistent crowd-answer warehouse: cross-session dedup and vote aggregation.

Crowd queries are the scarce resource in every algorithm this library
reproduces, yet without this package answers die with the oracle instance —
the in-memory caches in :mod:`repro.oracles` and the per-session budgets in
:mod:`repro.service` share nothing across sessions or runs.  The warehouse
makes answers durable and shared:

* :class:`~repro.store.warehouse.AnswerStore` — a warehouse sharded by key
  hash into independent WAL+snapshot segments (format v2, versioned),
  holding the noisy votes of every canonical query key and answering with
  their strict majority.  Appends group-commit (K appends inside the commit
  window share one fsync), warm reads come from an in-memory index that
  never touches disk, and per-shard advisory locks let several processes
  write disjoint shards of one store concurrently.
* :class:`~repro.store.oracle.StoredComparisonOracle` /
  :class:`~repro.store.oracle.StoredQuadrupletOracle` — drop-in oracle
  wrappers that consult the warehouse first and charge their
  :class:`~repro.oracles.counting.QueryCounter` only on true misses.  A cold
  store is bit-identical to the direct oracle path on seeded runs; a warm
  store turns repeat traffic into cache hits.
* Integration with :class:`~repro.service.core.CrowdOracleService`
  (``store=`` parameter): concurrent sessions share one warehouse, and each
  session's counter records its own hit/miss/charged split.
* ``python -m repro.store`` — ``stats`` / ``compact`` / ``clean``
  maintenance CLI.

Readout, knobs and the multi-writer contract:
``docs/subsystems/store.md``.  Byte-level on-disk format:
``docs/subsystems/store-format.md`` (mirrored by
:mod:`repro.store.format`).
"""

from repro.store.format import DEFAULT_N_SHARDS, STORE_FORMAT_VERSION, shard_of
from repro.store.keys import (
    comparison_code,
    comparison_codes,
    quadruplet_code,
    quadruplet_codes,
    quadruplet_codes_fit,
)
from repro.store.oracle import StoredComparisonOracle, StoredQuadrupletOracle
from repro.store.shard import GroupCommitPolicy, StoreShard
from repro.store.warehouse import AnswerStore

__all__ = [
    "AnswerStore",
    "DEFAULT_N_SHARDS",
    "GroupCommitPolicy",
    "shard_of",
    "STORE_FORMAT_VERSION",
    "StoredComparisonOracle",
    "StoredQuadrupletOracle",
    "StoreShard",
    "comparison_code",
    "comparison_codes",
    "quadruplet_code",
    "quadruplet_codes",
    "quadruplet_codes_fit",
]
