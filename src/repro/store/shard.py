"""One WAL+snapshot segment of the sharded answer warehouse.

A :class:`StoreShard` owns one shard directory — its write-ahead log, its
snapshot, its in-memory vote tallies, its advisory writer lock and its
group-commit bookkeeping.  The warehouse
(:class:`repro.store.warehouse.AnswerStore`) routes keys to shards and
aggregates; shards never look at each other's state, which is exactly what
lets several *processes* write disjoint shards of one store concurrently.

Lifecycle of a shard within one :class:`AnswerStore` instance:

* **load** (:meth:`load`) — read snapshot then WAL, tolerant of a torn
  trailing record (warn, keep the good prefix, remember the repair point).
  Loading never takes the lock and never rewrites the file: a read-only
  open must be able to inspect a shard another process is writing.
* **ensure_writable** (first append or compaction) — open the WAL handle,
  take the per-shard ``flock`` (non-blocking; a second writer gets a
  :class:`~repro.exceptions.StoreError` naming the shard), then *re-sync*:
  if the file grew since load (another process appended and closed), replay
  the tail; if the load saw a torn record, truncate it away through the
  locked handle.  Only after the lock is held is the on-disk state
  guaranteed stable, which is why both staleness repair and torn-tail
  repair live here rather than in :meth:`load`.
* **append** (:meth:`append`) — frame the votes, write them in one
  ``write`` call, ``flush`` to the OS, and decide whether this append pays
  the ``fsync`` under the group-commit policy (see
  :class:`GroupCommitPolicy`).
* **compact** (:meth:`compact`) — write the snapshot atomically
  (temp + ``os.replace`` + fsync), then truncate the locked WAL back to a
  bare header.  Both crash windows are safe: the snapshot records
  ``last_seq``, so an un-truncated WAL replays idempotently.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

try:  # POSIX advisory locking; absent on some platforms (best-effort guard).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from repro import obs
from repro.exceptions import StoreCorruptionError, StoreError
from repro.storage import write_file_atomic
from repro.store import format as fmt


@dataclass
class GroupCommitPolicy:
    """When an append pays the ``fsync``.

    ``mode`` is one of:

    * ``"group"`` (default) — appends mark the shard dirty; the fsync lands
      when an append arrives *window* seconds or more after the first
      unsynced one (so K appends inside a window share one fsync), and
      always on :meth:`StoreShard.sync` / close.  A machine crash can lose
      up to one window of acknowledged votes; a process crash cannot (the
      data reached the OS on every append).
    * ``"always"`` — every append batch fsyncs (one fsync per
      ``add_votes`` call, still amortised over the batch).
    * ``"none"`` — never fsync; durability is whatever the OS page cache
      gives you.
    """

    mode: str = "group"
    window: float = 0.005

    def __post_init__(self):
        if self.mode not in ("group", "always", "none"):
            raise ValueError(f"sync mode must be group|always|none, got {self.mode!r}")
        if not self.window >= 0:
            raise ValueError(f"group-commit window must be non-negative, got {self.window}")


class StoreShard:
    """One shard: votes, WAL handle, lock, and group-commit state."""

    def __init__(
        self,
        directory: Path,
        shard: int,
        n_shards: int,
        policy: GroupCommitPolicy,
        read_index: Dict[int, bool],
    ):
        self.directory = directory
        self.shard = int(shard)
        self.n_shards = int(n_shards)
        self.policy = policy
        #: code -> [yes_votes, no_votes]
        self.votes: Dict[int, List[int]] = {}
        self.last_seq = 0
        self.appends_since_compact = 0
        self.n_appends = 0
        self.n_fsyncs = 0
        self._fh: Optional[IO[bytes]] = None
        self._loaded_bytes = 0  # byte length of the valid prefix seen at load
        self._torn = False  # load saw a torn tail that a writer must truncate
        self._dirty_since: Optional[float] = None  # first unsynced append, monotonic
        #: Set when acquiring the writer lock found on-disk state newer than
        #: memory and reloaded the shard; the warehouse must then rebuild its
        #: read index for this shard's keys.  Cleared by the warehouse.
        self.resynced = False
        #: The warehouse's resolved-answer dict (code -> strict-majority
        #: answer; ties absent), shared by every shard of the store.
        #: :meth:`append` folds each vote into tallies *and* read index in a
        #: single pass — the hot loop of the whole write path.
        self.read_index = read_index

    # -- paths ----------------------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return fmt.shard_wal_path(self.directory, self.shard)

    @property
    def snapshot_path(self) -> Path:
        return fmt.shard_snapshot_path(self.directory, self.shard)

    @property
    def writing(self) -> bool:
        """Whether this instance holds the shard's writer lock."""
        return self._fh is not None

    # -- loading --------------------------------------------------------------

    def load(self) -> None:
        """Read snapshot + WAL into memory (read-only; see class docstring)."""
        self.votes = {}
        self.last_seq = 0
        try:
            raw = self.snapshot_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            pass
        else:
            self.votes, self.last_seq = fmt.decode_shard_snapshot(
                raw, self.shard, self.n_shards, self.snapshot_path
            )
        self._loaded_bytes, self._torn = self._replay_wal()

    def _replay_wal(self) -> Tuple[int, bool]:
        """Fold WAL records into the tallies.

        Returns ``(good_bytes, torn)``: the byte length of the valid prefix
        of the file, and whether a torn tail follows it.  Records with a
        sequence number the snapshot already covered are skipped, so replay
        after an interrupted compaction is idempotent.
        """
        try:
            data = self.wal_path.read_bytes()
        except FileNotFoundError:
            return 0, False
        if not data:
            return 0, False
        newline = data.find(b"\n")
        if newline < 0:
            warnings.warn(
                f"answer store WAL {self.wal_path}: truncated header line "
                "(torn write from an interrupted run); dropping it",
                RuntimeWarning,
                stacklevel=3,
            )
            return 0, True
        try:
            header_line = data[:newline].decode("utf-8")
        except UnicodeDecodeError as error:
            raise StoreCorruptionError(
                f"WAL {self.wal_path} has an unreadable header: {error}"
            ) from error
        fmt.decode_shard_header(header_line, self.shard, self.n_shards, self.wal_path)
        offset = newline + 1
        torn = False
        snapshot_seq = self.last_seq
        total = len(data)
        while offset < total:
            try:
                first_seq, codes, answers, end = fmt.decode_votes_at(data, offset)
            except fmt.TruncatedWalRecord:
                torn = True
                warnings.warn(
                    f"answer store WAL {self.wal_path}: truncated final record "
                    "(torn write from an interrupted run); dropping it",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
            except ValueError:
                torn = True
                warnings.warn(
                    f"answer store WAL {self.wal_path}: corrupt entry at byte "
                    f"{offset}; dropping {total - offset} trailing byte(s) "
                    "(torn write from an interrupted run)",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
            offset = end
            last_seq = first_seq + len(codes) - 1
            self.last_seq = max(self.last_seq, last_seq)
            if last_seq <= snapshot_seq:
                continue  # already folded into the snapshot by a compaction
            if first_seq <= snapshot_seq:
                # Compaction snapshots whole in-memory batches, so a record
                # straddling the snapshot boundary means hand-spliced files;
                # replay only the uncovered suffix rather than double-count.
                skip = snapshot_seq - first_seq + 1
                codes, answers = codes[skip:], answers[skip:]
            votes = self.votes
            for code, answer in zip(codes, answers):  # hot loop
                pair = votes.get(code)
                if pair is None:
                    votes[code] = [int(answer), int(not answer)]
                else:
                    pair[0 if answer else 1] += 1
        return offset, torn

    # -- write path -----------------------------------------------------------

    def ensure_writable(self) -> IO[bytes]:
        """Acquire the shard writer lock, re-syncing and repairing the WAL."""
        if self._fh is not None:
            return self._fh
        self.wal_path.parent.mkdir(parents=True, exist_ok=True)
        handle = self.wal_path.open("ab")
        if fcntl is not None:
            try:
                with obs.timer("store.lock_wait_seconds", shard=self.shard):
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise StoreError(
                    f"shard {self.shard} of the store at {self.directory} is "
                    "being written by another process; writers must own "
                    "disjoint shards (close the other writer, or route these "
                    "keys elsewhere)"
                ) from None
        self._fh = handle
        # The lock is held: the file can no longer move under us.  If the
        # on-disk state moved since our load — another (now finished) writer
        # appended, or compacted the shard — reload it wholesale so our
        # sequence numbers continue from the true tail and a later
        # compaction by *us* cannot write a snapshot missing their votes.
        size = self.wal_path.stat().st_size
        if size != self._loaded_bytes:
            with warnings.catch_warnings():
                # A torn tail was already warned about at load time; don't
                # repeat it when the reload replays the same file.
                warnings.simplefilter("ignore", RuntimeWarning)
                self.load()
            self.resynced = True
        if self._torn:
            handle.truncate(self._loaded_bytes)
            handle.flush()
            os.fsync(handle.fileno())
            self._torn = False
        if self._loaded_bytes == 0:
            header = fmt.encode_shard_header(self.shard, self.n_shards).encode("utf-8")
            handle.write(header)
            handle.flush()
            self._loaded_bytes = len(header)
        return handle

    def append(self, codes: Sequence[int], answers: Sequence[bool]) -> None:
        """Durably append votes (parallel sequences); one WAL record, one write.

        The record is written *before* the in-memory tallies update, so a
        crash can lose votes but never invent them.  *codes* and *answers*
        must have equal length; arrays and plain sequences both work (the
        WAL framing consumes arrays directly, the tallies get ``tolist()``'d
        plain ints/bools — never numpy scalars as dict keys).
        """
        n = len(codes)
        if not n:
            return
        codes_arr = np.asarray(codes, dtype=np.int64)
        answers_arr = np.asarray(answers, dtype=bool)
        handle = self.ensure_writable()
        payload = fmt.encode_votes(self.last_seq + 1, codes_arr, answers_arr)
        with obs.timer("store.wal_append_seconds", shard=self.shard):
            handle.write(payload)
            handle.flush()
        obs.inc("store.appended_votes", n, shard=self.shard)
        self.last_seq += n
        self._loaded_bytes += len(payload)
        self.n_appends += n
        self.appends_since_compact += n
        self._group_commit()
        votes = self.votes
        index = self.read_index
        code_list = codes_arr.tolist()
        answer_list = answers_arr.tolist()
        # Bulk fast path: a cold store sees almost exclusively first votes
        # (the stored oracles dedup within and across batches), and a batch
        # of distinct brand-new codes inserts in C — no per-vote bytecode.
        if (
            not any(map(votes.__contains__, code_list))
            and (n == 1 or np.unique(codes_arr).size == n)
        ):
            votes.update(
                zip(code_list, [[1, 0] if a else [0, 1] for a in answer_list])
            )
            index.update(zip(code_list, answer_list))
        else:
            # Readout fused into the tally loop (see read_index).
            for code, answer in zip(code_list, answer_list):
                pair = votes.get(code)
                if pair is None:
                    votes[code] = [1, 0] if answer else [0, 1]
                    index[code] = answer  # a first vote always resolves
                else:
                    pair[0 if answer else 1] += 1
                    yes, no = pair
                    if yes == no:
                        index.pop(code, None)
                    else:
                        index[code] = yes > no

    def _group_commit(self) -> None:
        """Decide whether this append pays the fsync (see :class:`GroupCommitPolicy`)."""
        mode = self.policy.mode
        if mode == "none":
            return
        now = time.monotonic()
        if mode == "always":
            self._fsync()
            return
        if self._dirty_since is None:
            self._dirty_since = now
        elif now - self._dirty_since >= self.policy.window:
            self._fsync()

    def _fsync(self) -> None:
        if self._fh is not None:
            with obs.timer("store.fsync_seconds", shard=self.shard):
                os.fsync(self._fh.fileno())
            obs.inc("store.fsyncs", shard=self.shard)
            self.n_fsyncs += 1
            self._dirty_since = None

    def sync(self) -> None:
        """Force the fsync of any unsynced appends (group-commit flush)."""
        if self._dirty_since is not None:
            self._fsync()

    # -- maintenance ----------------------------------------------------------

    def compact(self) -> None:
        """Fold this shard's WAL into a fresh snapshot and truncate the log.

        Requires (and takes) the writer lock: the snapshot is written from
        the in-memory tallies, which the lock's resync step guarantees are
        current.  The WAL is truncated *through the locked handle*, so the
        lock is never released mid-compaction and no other writer can slip
        an append into the window between snapshot and truncate.
        """
        with obs.span("store.compact", subsystem="store", shard=self.shard), \
                obs.timer("store.compact_seconds", shard=self.shard):
            handle = self.ensure_writable()
            payload = fmt.encode_shard_snapshot(
                self.shard, self.n_shards, self.last_seq, self.votes
            )
            write_file_atomic(self.snapshot_path, payload)
            header = fmt.encode_shard_header(self.shard, self.n_shards).encode("utf-8")
            handle.truncate(0)
            handle.write(header)
            handle.flush()
            os.fsync(handle.fileno())
            self._loaded_bytes = len(header)
            self._dirty_since = None
            self.appends_since_compact = 0
        obs.inc("store.compactions", shard=self.shard)

    def close(self) -> None:
        """Sync and release the WAL handle (and with it the writer lock)."""
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    # -- observability --------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self.votes)

    @property
    def n_votes(self) -> int:
        return sum(pair[0] + pair[1] for pair in self.votes.values())

    def disk_bytes(self) -> int:
        """Total on-disk bytes of this shard's directory — WAL, snapshot and
        any auxiliary block files a future format revision adds.  Summing the
        directory (rather than the two known paths) keeps capacity planning
        honest: every byte the shard owns is counted, including temp files a
        crash left behind."""
        directory = fmt.shard_dir(self.directory, self.shard)
        total = 0
        try:
            entries = os.scandir(directory)
        except FileNotFoundError:
            return 0
        with entries:
            for entry in entries:
                try:
                    if entry.is_file(follow_symlinks=False):
                        total += entry.stat(follow_symlinks=False).st_size
                except FileNotFoundError:  # pragma: no cover - racing unlink
                    continue
        return total

    def stats(self) -> Dict[str, Any]:
        """Per-shard statistics row of the warehouse ``stats()`` payload."""

        def _size(path: Path) -> int:
            try:
                return path.stat().st_size
            except FileNotFoundError:
                return 0

        return {
            "shard": self.shard,
            "n_keys": self.n_keys,
            "n_votes": self.n_votes,
            "last_seq": self.last_seq,
            "wal_bytes": _size(self.wal_path),
            "snapshot_bytes": _size(self.snapshot_path),
            "disk_bytes": self.disk_bytes(),
            "n_appends": self.n_appends,
            "n_fsyncs": self.n_fsyncs,
            "writing": self.writing,
        }
