"""Tests for the persistent crowd-answer warehouse (`repro.store`).

Covers the sharded v2 on-disk format (manifest, per-shard WAL + snapshot,
group commit, crash recovery, versioning, refusal of v1 layouts), vote
tallies and majority readout, concurrent multi-process writers over disjoint
shards, the warehouse-backed oracle wrappers (cold bit-identity with the
direct path, warm-store query savings), the maintenance CLI, and the
shared-store integration with the crowd-oracle service.  Async service
tests reuse the per-test ``asyncio.wait_for`` guard convention of
``tests/test_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import shutil
import warnings

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    QueryBudgetExceededError,
    StoreCorruptionError,
    StoreError,
)
from repro.kcenter.adversarial import kcenter_adversarial
from repro.maximum.count_max import count_max
from repro.metric.space import PointCloudSpace
from repro.oracles.comparison import ValueComparisonOracle
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import AdversarialNoise, ExactNoise, ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle
from repro.service.core import CrowdOracleService, ServiceConfig
from repro.service.load import run_comparison_load
from repro.store import (
    DEFAULT_N_SHARDS,
    AnswerStore,
    StoredComparisonOracle,
    StoredQuadrupletOracle,
    comparison_code,
    shard_of,
)
from repro.store import format as fmt
from repro.store.__main__ import main as store_main

#: Per-test asyncio timeout guard, seconds.
GUARD = 20.0

#: Deadline for multi-process coordination, seconds.
MP_GUARD = 30.0


def run_async(coro):
    """Run *coro* with the suite's timeout guard."""
    return asyncio.run(asyncio.wait_for(coro, GUARD))


def _values(n=40, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=n)


def _space(n=30, seed=4):
    return PointCloudSpace(np.random.default_rng(seed).normal(size=(n, 2)))


class TestAnswerStore:
    def test_votes_accumulate_and_lookup_resolves(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        assert store.lookup(7) is None
        assert store.votes(7) == (0, 0)
        store.add_vote(7, True)
        store.add_vote(7, True)
        store.add_vote(7, False)
        assert store.votes(7) == (2, 1)
        assert store.lookup(7) is True
        assert len(store) == 1
        assert store.n_votes == 3

    def test_persistence_across_reopen(self, tmp_path):
        directory = tmp_path / "s"
        with AnswerStore(directory, n_records=10) as store:
            store.add_votes([3, -4, 3], [True, False, True])
        reopened = AnswerStore(directory)
        assert reopened.votes(3) == (2, 0)
        assert reopened.lookup(-4) is False
        assert reopened.n_records == 10
        reopened.close()

    def test_lookup_batch_matches_scalar(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        store.add_votes([1, 1, 2, 2, 3], [True, True, False, True, False])
        codes = np.array([1, 2, 3, 9], dtype=np.int64)
        resolved, answers = store.lookup_batch(codes)
        assert resolved.tolist() == [True, False, True, False]  # 2 is tied 1-1
        assert answers[0]
        for pos, code in enumerate(codes):
            scalar = store.lookup(int(code))
            assert (scalar is not None) == resolved[pos]

    def test_batch_mixing_new_and_seen_codes_keeps_tallies_and_readout(self, tmp_path):
        # First batch: all-new distinct codes (the bulk insert path).
        # Second batch: same codes again plus new ones (the per-vote path),
        # creating a tie that must *un*-resolve the key in the read index.
        store = AnswerStore(tmp_path / "s")
        store.add_votes([10, 11, 12], [True, True, False])
        assert store.lookup(10) is True and store.lookup(12) is False
        store.add_votes([10, 13, 11], [False, True, True])
        assert store.votes(10) == (1, 1)
        assert store.lookup(10) is None  # tied — resolution withdrawn
        assert store.votes(11) == (2, 0)
        assert store.lookup(11) is True
        assert store.lookup(13) is True  # new code in the mixed batch
        # Reopen: WAL replay must reproduce the same tallies.
        store.close()
        reopened = AnswerStore(tmp_path / "s")
        assert reopened.votes(10) == (1, 1)
        assert reopened.lookup(10) is None
        assert reopened.votes(11) == (2, 0)
        reopened.close()

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path, compact_every=-1)
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path, compact_every=float("nan"))
        store = AnswerStore(tmp_path / "s")
        with pytest.raises(InvalidParameterError):
            store.add_votes([1, 2], [True])

    def test_file_path_raises_store_error(self, tmp_path):
        path = tmp_path / "not-a-store"
        path.write_text("data\n")
        for where in (path, path / "inside"):
            with pytest.raises(StoreError, match="not-a-store"):
                AnswerStore(where)
        assert path.read_text() == "data\n"

    def test_n_records_mismatch_rejected(self, tmp_path):
        directory = tmp_path / "s"
        with AnswerStore(directory) as store:
            store.bind_n_records(40)
            store.add_vote(1, True)  # persists the header with n_records=40
        reopened = AnswerStore(directory)
        with pytest.raises(StoreError, match="n_records"):
            reopened.bind_n_records(50)
        reopened.close()

    def test_compact_folds_wal_into_snapshot(self, tmp_path):
        directory = tmp_path / "s"
        store = AnswerStore(directory, n_records=20, n_shards=2)
        store.add_votes(list(range(50)), [True] * 50)
        assert not fmt.shard_snapshot_path(directory, 0).exists()
        store.compact()
        for shard in range(2):
            assert fmt.shard_snapshot_path(directory, shard).exists()
            # Each WAL is reset to header-only; a reload sees the same state.
            wal_bytes = fmt.shard_wal_path(directory, shard).read_bytes()
            assert wal_bytes == fmt.encode_shard_header(shard, 2).encode("utf-8")
        store.close()
        reopened = AnswerStore(directory)
        assert len(reopened) == 50
        assert reopened.n_votes == 50
        assert reopened.lookup(17) is True
        reopened.close()

    def test_interrupted_compaction_never_double_counts(self, tmp_path):
        # Crash window: snapshot written but the WAL not yet truncated.  The
        # sequence numbers in the snapshot make WAL replay idempotent.
        directory = tmp_path / "s"
        store = AnswerStore(directory, n_shards=1)
        store.add_votes([1, 1, 2], [True, True, False])
        wal_path = fmt.shard_wal_path(directory, 0)
        stale_wal = wal_path.read_bytes()
        store.compact()
        store.close()
        wal_path.write_bytes(stale_wal)  # simulate the un-truncated WAL
        reopened = AnswerStore(directory)
        assert reopened.votes(1) == (2, 0)  # not (4, 0)
        assert reopened.n_votes == 3
        reopened.close()

    def test_auto_compaction_threshold(self, tmp_path):
        directory = tmp_path / "s"
        store = AnswerStore(directory, compact_every=10, n_shards=1)
        store.add_votes(list(range(10)), [True] * 10)
        assert fmt.shard_snapshot_path(directory, 0).exists()
        wal_bytes = fmt.shard_wal_path(directory, 0).read_bytes()
        assert wal_bytes == fmt.encode_shard_header(0, 1).encode("utf-8")
        store.close()

    def test_auto_compaction_is_per_shard(self, tmp_path):
        # Only the shard that crossed the threshold compacts; its siblings'
        # WALs keep their records.
        directory = tmp_path / "s"
        store = AnswerStore(directory, compact_every=10, n_shards=2)
        store.add_votes([0] * 10 + [1], [True] * 11)  # shard 0 hot, shard 1 cold
        assert fmt.shard_snapshot_path(directory, 0).exists()
        assert not fmt.shard_snapshot_path(directory, 1).exists()
        store.close()

    def test_clean_removes_files(self, tmp_path):
        directory = tmp_path / "s"
        store = AnswerStore(directory)
        store.add_vote(1, True)
        store.compact()
        removed = store.clean()
        assert removed >= 2  # manifest + at least the written shard's files
        assert not fmt.manifest_path(directory).exists()
        assert not (directory / fmt.SHARDS_DIR_NAME).exists()
        assert len(store) == 0
        # The store stays usable: the next write recreates the layout.
        store.add_vote(1, True)
        assert fmt.manifest_path(directory).exists()
        store.close()

    def test_second_concurrent_writer_rejected_per_shard(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")  # advisory lock is POSIX-only
        assert fcntl
        directory = tmp_path / "s"
        writer = AnswerStore(directory, n_shards=2)
        writer.add_vote(2, True)  # holds shard 0's writer lock (2 % 2 == 0)
        rival = AnswerStore(directory)  # reading (loading) is always fine
        with pytest.raises(StoreError, match=r"shard 0 .* another\s+process"):
            rival.add_vote(4, False)  # same shard: rejected
        rival.add_vote(3, False)  # disjoint shard (3 % 2 == 1): fine
        writer.close()  # shard 0 lock released: the rival can write it now
        rival.add_vote(4, False)
        rival.close()
        reopened = AnswerStore(directory)
        assert reopened.n_votes == 3  # nothing lost to the contention
        reopened.close()

    def test_stats_payload(self, tmp_path):
        store = AnswerStore(tmp_path / "s", n_records=8)
        store.add_votes([1, 1, 2, 2], [True, True, False, True])
        stats = store.stats()
        assert stats["n_keys"] == 2
        assert stats["n_votes"] == 4
        assert stats["n_resolved"] == 1  # key 2 is tied 1-1
        assert stats["n_records"] == 8
        assert stats["wal_bytes"] > 0
        store.close()


class TestWalRecovery:
    """Per-shard crash recovery (all on a 1-shard store: one WAL to damage)."""

    def _store_with_votes(self, directory):
        # Three separate add_votes calls -> three WAL records on the shard,
        # so tests can damage one record without touching its neighbours.
        store = AnswerStore(directory, n_shards=1)
        for code, answer in ((10, True), (20, False), (30, True)):
            store.add_vote(code, answer)
        store.close()
        return store

    @staticmethod
    def _record_offsets(wal):
        """Byte offsets of each WAL record (and the final end offset)."""
        data = wal.read_bytes()
        offsets = [data.index(b"\n") + 1]
        while offsets[-1] < len(data):
            _, _, _, end = fmt.decode_votes_at(data, offsets[-1])
            offsets.append(end)
        return data, offsets

    def test_truncated_trailing_record_skipped_with_warning(self, tmp_path):
        directory = tmp_path / "s"
        self._store_with_votes(directory)
        wal = fmt.shard_wal_path(directory, 0)
        torn = fmt.encode_votes(4, [40], [True])[:-3]  # record missing its tail
        with wal.open("ab") as handle:
            handle.write(torn)
        with pytest.warns(RuntimeWarning, match="truncated final record"):
            reopened = AnswerStore(directory)
        assert reopened.n_votes == 3
        assert reopened.lookup(10) is True
        reopened.close()

    def test_garbage_trailing_bytes_skipped_with_warning(self, tmp_path):
        directory = tmp_path / "s"
        self._store_with_votes(directory)
        wal = fmt.shard_wal_path(directory, 0)
        with wal.open("ab") as handle:
            handle.write(b"not a wal record at all")
        with pytest.warns(RuntimeWarning):
            reopened = AnswerStore(directory)
        assert reopened.n_votes == 3
        reopened.close()

    def test_replay_stops_at_first_corrupt_record(self, tmp_path):
        # Everything after a torn write is suspect: the valid-looking record
        # after the corrupt one is dropped too, and the warning says so.
        directory = tmp_path / "s"
        self._store_with_votes(directory)
        wal = fmt.shard_wal_path(directory, 0)
        data, offsets = self._record_offsets(wal)
        damaged = bytearray(data)
        damaged[offsets[1] + 8] ^= 0xFF  # flip a payload byte: checksum fails
        wal.write_bytes(bytes(damaged))
        with pytest.warns(RuntimeWarning, match=r"corrupt entry at byte"):
            reopened = AnswerStore(directory)
        assert reopened.n_votes == 1  # the vote for 10 survives, 20/30 dropped
        assert reopened.lookup(30) is None
        reopened.close()

    def test_load_never_rewrites_a_torn_wal(self, tmp_path):
        # A read-only open must not mutate the file: another process may
        # hold the shard's writer lock and be mid-append.  Repair happens
        # only when *this* instance takes the lock to write.
        directory = tmp_path / "s"
        self._store_with_votes(directory)
        wal = fmt.shard_wal_path(directory, 0)
        with wal.open("ab") as handle:
            handle.write(b"\x09")  # torn append: not even a whole length field
        damaged = wal.read_bytes()
        with pytest.warns(RuntimeWarning):
            reader = AnswerStore(directory)
        assert wal.read_bytes() == damaged  # untouched by the load
        reader.close()

    def test_recovery_repairs_the_log_so_new_votes_survive(self, tmp_path):
        # The torn tail is truncated away under the writer lock before any
        # append lands, so votes flushed *after* a recovery are not stranded
        # behind the bad bytes: the next load replays them (no warning).
        directory = tmp_path / "s"
        self._store_with_votes(directory)
        fmt.shard_wal_path(directory, 0).open("ab").write(b"\x09")
        with pytest.warns(RuntimeWarning):
            store = AnswerStore(directory)
        store.add_vote(40, True)  # takes the lock: torn tail truncated first
        store.close()
        again = AnswerStore(directory)  # clean load: tail was repaired
        assert again.n_votes == 4
        assert again.lookup(40) is True
        again.close()

    def test_corrupt_header_raises(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "wal.jsonl").write_text("garbage header\n[1, 2, 1]\n")
        with pytest.raises(StoreCorruptionError, match="header"):
            AnswerStore(directory)

    def test_corrupt_snapshot_raises(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "snapshot.json").write_text("{truncated")
        with pytest.raises(StoreCorruptionError, match="snapshot"):
            AnswerStore(directory)

    def test_future_format_version_rejected(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "snapshot.json").write_text(
            json.dumps({"format": 99, "n_records": 5, "last_seq": 0, "votes": {}})
        )
        with pytest.raises(StoreError, match="format version"):
            AnswerStore(directory)

    def test_future_format_with_restructured_votes_is_a_version_error(self, tmp_path):
        # A v2 snapshot that reshapes the votes payload must report as a
        # version mismatch (actionable), not as corruption (alarming).
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "snapshot.json").write_text(
            json.dumps({"format": 2, "votes": [["1", 1, 0, 0.9]]})
        )
        with pytest.raises(StoreError, match="format version") as excinfo:
            AnswerStore(directory)
        assert not isinstance(excinfo.value, StoreCorruptionError)

    def test_empty_wal_loads(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "wal.jsonl").write_text("")
        store = AnswerStore(directory)
        assert len(store) == 0
        store.close()


class TestWalTornTailFuzz:
    """Seeded fuzz: any torn tail recovers the longest clean record prefix.

    The targeted tests above damage one chosen byte; these sweep seeded
    random truncation offsets (plus the deliberate edges: mid-header, the
    header boundary, and the final checksum bytes of each record) and assert
    the recovery contract at every one — votes fully before the cut survive,
    everything after is dropped with a warning, clean cuts load silently,
    and a post-recovery append always lands and survives reload.
    """

    N_VOTES = 6

    def _seed_store(self, directory):
        store = AnswerStore(directory, n_shards=1)
        for code in range(self.N_VOTES):
            store.add_vote(10 + code, bool(code % 2))
        store.close()

    def _wal_layout(self, directory):
        """WAL bytes, header end, and the end offset of every record."""
        data = fmt.shard_wal_path(directory, 0).read_bytes()
        header_end = data.index(b"\n") + 1
        ends = [header_end]
        while ends[-1] < len(data):
            _, _, _, end = fmt.decode_votes_at(data, ends[-1])
            ends.append(end)
        return data, header_end, ends

    def test_every_truncation_offset_recovers_longest_prefix(self, tmp_path):
        rng = np.random.default_rng(0xA11CE)
        base = tmp_path / "base"
        self._seed_store(base)
        data, header_end, ends = self._wal_layout(base)
        clean_boundaries = {0, *ends}
        cuts = {0, 1, header_end // 2, header_end - 1, header_end, header_end + 1}
        cuts.update(end - 1 for end in ends[1:])  # mid-checksum: last record byte
        cuts.update(int(c) for c in rng.integers(0, len(data) + 1, size=48))
        for cut in sorted(cuts):
            trial = tmp_path / f"cut{cut}"
            shutil.copytree(base, trial)
            fmt.shard_wal_path(trial, 0).write_bytes(data[:cut])
            surviving = sum(1 for end in ends[1:] if end <= cut)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                store = AnswerStore(trial)
            torn = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if cut in clean_boundaries:
                assert not torn, f"clean cut at byte {cut} warned: {torn[0].message}"
            else:
                assert torn, f"torn cut at byte {cut} loaded without a warning"
            assert store.n_votes == surviving, f"cut at byte {cut}"
            for code in range(surviving):
                assert store.lookup(10 + code) == bool(code % 2)
            store.close()
            shutil.rmtree(trial)

    def test_post_recovery_append_survives_reload_at_any_cut(self, tmp_path):
        rng = np.random.default_rng(0xBEEF)
        base = tmp_path / "base"
        self._seed_store(base)
        data, header_end, ends = self._wal_layout(base)
        cuts = {1, header_end - 1, len(data) - 2}
        cuts.update(int(c) for c in rng.integers(1, len(data), size=8))
        for cut in sorted(cuts):
            trial = tmp_path / f"cut{cut}"
            shutil.copytree(base, trial)
            fmt.shard_wal_path(trial, 0).write_bytes(data[:cut])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                store = AnswerStore(trial)
            surviving = store.n_votes
            store.add_vote(99, True)  # takes the writer lock: tail repaired
            store.close()
            again = AnswerStore(trial)  # must load cleanly: tail was repaired
            assert again.n_votes == surviving + 1
            assert again.lookup(99) is True
            again.close()
            shutil.rmtree(trial)

    def test_random_byte_flip_in_records_recovers_a_prefix(self, tmp_path):
        # Replay trusts nothing after the first checksum failure, wherever
        # the flipped byte lands (length field, payload, or the CRC itself).
        rng = np.random.default_rng(0xF11B)
        base = tmp_path / "base"
        self._seed_store(base)
        data, header_end, ends = self._wal_layout(base)
        for trial_no in range(12):
            pos = int(rng.integers(header_end, len(data)))
            trial = tmp_path / f"flip{trial_no}"
            shutil.copytree(base, trial)
            damaged = bytearray(data)
            damaged[pos] ^= 0xFF
            fmt.shard_wal_path(trial, 0).write_bytes(bytes(damaged))
            flipped_record = next(i for i, end in enumerate(ends[1:]) if pos < end)
            with pytest.warns(RuntimeWarning):
                store = AnswerStore(trial)
            assert store.n_votes == flipped_record, f"flip at byte {pos}"
            store.close()
            shutil.rmtree(trial)


class TestShardedLayout:
    def test_v2_layout_on_disk(self, tmp_path):
        directory = tmp_path / "s"
        store = AnswerStore(directory, n_shards=4, n_records=6)
        store.add_votes([-3, -2, 5, 6], [True, True, False, True])
        store.close()
        manifest = json.loads(fmt.manifest_path(directory).read_text())
        assert manifest == {"format": 2, "n_shards": 4, "n_records": 6}
        for code in (-3, -2, 5, 6):
            wal = fmt.shard_wal_path(directory, shard_of(code, 4))
            assert wal.exists()
            header = json.loads(wal.read_bytes().split(b"\n", 1)[0].decode("utf-8"))
            assert header["format"] == 2
            assert header["n_shards"] == 4

    def test_codes_route_by_modulo(self, tmp_path):
        directory = tmp_path / "s"
        store = AnswerStore(directory, n_shards=3)
        codes = [-7, -1, 0, 4, 11]
        store.add_votes(codes, [True] * len(codes))
        store.close()
        for code in codes:
            shard = shard_of(code, 3)
            assert 0 <= shard < 3  # negative codes route to a real shard too
            data = fmt.shard_wal_path(directory, shard).read_bytes()
            _, wal_codes, _, _ = fmt.decode_votes_at(data, data.index(b"\n") + 1)
            assert code in wal_codes

    def test_default_shard_count(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        assert store.n_shards == DEFAULT_N_SHARDS
        store.close()

    def test_manifest_pins_shard_count(self, tmp_path):
        directory = tmp_path / "s"
        AnswerStore(directory, n_shards=4).close()
        reopened = AnswerStore(directory)  # no explicit count: manifest wins
        assert reopened.n_shards == 4
        reopened.close()
        with pytest.raises(StoreError, match="shard"):
            AnswerStore(directory, n_shards=8)  # conflicting count: rejected

    def test_shard_header_identity_checked(self, tmp_path):
        # A shard WAL moved to another shard directory must be detected, not
        # silently replayed under the wrong keys.
        directory = tmp_path / "s"
        store = AnswerStore(directory, n_shards=2)
        store.add_votes([0, 1], [True, True])
        store.close()
        wal0 = fmt.shard_wal_path(directory, 0)
        wal1 = fmt.shard_wal_path(directory, 1)
        wal1.write_bytes(wal0.read_bytes())
        with pytest.raises(StoreCorruptionError, match="shard"):
            AnswerStore(directory)

    def test_invalid_shard_and_sync_parameters(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path / "a", n_shards=0)
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path / "a", n_shards=float("nan"))
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path / "b", sync="sometimes")
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path / "c", group_commit_window=-1.0)
        with pytest.raises(InvalidParameterError):
            AnswerStore(tmp_path / "d", group_commit_window=float("nan"))

    def test_v1_layout_is_refused_and_nothing_written(self, tmp_path):
        # Format v1 (a flat wal.jsonl and/or snapshot.json, no manifest) is
        # not read.  Opening one must fail and name the file, not start an
        # empty v2 store beside the old votes.
        for name in (fmt.V1_WAL_NAME, fmt.SNAPSHOT_NAME):
            directory = tmp_path / name
            directory.mkdir()
            (directory / name).write_text('{"format": 1, "n_records": 9}\n')
            with pytest.raises(StoreError, match=re.escape(name)):
                AnswerStore(directory)
            assert [path.name for path in directory.iterdir()] == [name]
            assert not fmt.manifest_path(directory).exists()


class TestGroupCommit:
    def test_always_mode_fsyncs_every_append(self, tmp_path):
        store = AnswerStore(tmp_path / "s", n_shards=1, sync="always")
        for k in range(5):
            store.add_vote(k, True)
        assert store.stats()["n_fsyncs"] == 5
        store.close()

    def test_none_mode_never_fsyncs(self, tmp_path):
        store = AnswerStore(tmp_path / "s", n_shards=1, sync="none")
        for k in range(5):
            store.add_vote(k, True)
        store.close()
        assert store.stats()["n_fsyncs"] == 0

    def test_group_mode_amortises_fsyncs(self, tmp_path):
        # A wide window: no append ever pays the fsync (each marks the shard
        # dirty); only close() settles the debt — one fsync for 50 appends.
        store = AnswerStore(
            tmp_path / "s", n_shards=1, sync="group", group_commit_window=60.0
        )
        for k in range(50):
            store.add_vote(k, True)
        assert store.stats()["n_fsyncs"] == 0
        store.flush()
        assert store.stats()["n_fsyncs"] == 1
        store.close()
        reopened = AnswerStore(tmp_path / "s")
        assert reopened.n_votes == 50  # nothing lost to the deferral
        reopened.close()

    def test_close_settles_group_commit_debt(self, tmp_path):
        store = AnswerStore(
            tmp_path / "s", n_shards=1, sync="group", group_commit_window=60.0
        )
        store.add_vote(1, True)
        store.close()
        assert store.stats()["n_fsyncs"] == 1


def _disjoint_writer(directory, parity, n_votes, barrier, failures):
    """Worker: append *n_votes* votes whose codes all route to one shard."""
    try:
        store = AnswerStore(str(directory))  # n_shards=2 from the manifest
        barrier.wait(timeout=MP_GUARD)
        for k in range(n_votes):
            # code % 2 == parity: this writer only ever touches its shard.
            store.add_vote(2 * k + parity, bool(k % 2))
        store.close()
    except BaseException as error:  # pragma: no cover - failure reporting
        failures.put(repr(error))


def _lock_holder(directory, code, acquired, release, failures):
    """Worker: take one shard's writer lock and hold it until released."""
    try:
        store = AnswerStore(str(directory))
        store.add_vote(code, True)
        acquired.set()
        release.wait(timeout=MP_GUARD)
        store.close()
    except BaseException as error:  # pragma: no cover - failure reporting
        acquired.set()
        failures.put(repr(error))


class TestMultiProcessWriters:
    """The multi-writer contract: disjoint shards concurrently, same shard never."""

    def _ctx(self):
        pytest.importorskip("fcntl")
        return multiprocessing.get_context("fork")

    def test_two_processes_write_disjoint_shards_with_a_reader(self, tmp_path):
        directory = tmp_path / "s"
        AnswerStore(directory, n_shards=2).close()  # create before spawning
        ctx = self._ctx()
        n_votes = 200
        barrier = ctx.Barrier(3)
        failures = ctx.Queue()
        workers = [
            ctx.Process(
                target=_disjoint_writer,
                args=(directory, parity, n_votes, barrier, failures),
            )
            for parity in (0, 1)
        ]
        for worker in workers:
            worker.start()
        barrier.wait(timeout=MP_GUARD)
        # Interleaved reader: repeatedly load the store while both writers
        # are appending.  Reads never lock, never block a writer, and only
        # ever see a prefix of each shard's log (possibly a torn tail).
        snapshots = []
        while any(worker.is_alive() for worker in workers):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                reader = AnswerStore(directory)
            snapshots.append(reader.n_votes)
            reader.close()
        for worker in workers:
            worker.join(timeout=MP_GUARD)
        assert failures.empty(), failures.get()
        assert all(0 <= seen <= 2 * n_votes for seen in snapshots)
        # No lost votes: every append from both writers is on disk.
        final = AnswerStore(directory)
        assert final.n_votes == 2 * n_votes
        for k in range(n_votes):
            expected = (0, 1) if k % 2 == 0 else (1, 0)
            assert final.votes(2 * k) == expected
            assert final.votes(2 * k + 1) == expected
        final.close()

    def test_same_shard_contention_raises_per_shard_error(self, tmp_path):
        directory = tmp_path / "s"
        AnswerStore(directory, n_shards=2).close()
        ctx = self._ctx()
        acquired = ctx.Event()
        release = ctx.Event()
        failures = ctx.Queue()
        holder = ctx.Process(
            target=_lock_holder, args=(directory, 0, acquired, release, failures)
        )
        holder.start()
        try:
            assert acquired.wait(timeout=MP_GUARD)
            assert failures.empty()
            local = AnswerStore(directory)
            with pytest.raises(StoreError, match=r"shard 0 .* another\s+process"):
                local.add_vote(2, True)  # 2 % 2 == 0: the held shard
            local.add_vote(3, True)  # 3 % 2 == 1: free shard, no conflict
            local.close()
        finally:
            release.set()
            holder.join(timeout=MP_GUARD)
        assert failures.empty()
        final = AnswerStore(directory)
        assert final.votes(0) == (1, 0)
        assert final.votes(3) == (1, 0)
        final.close()


class TestStoredOracles:
    def test_count_max_cold_store_bit_identical(self, tmp_path):
        values = _values(40, seed=3)
        items = list(range(40))

        def direct():
            oracle = ValueComparisonOracle(
                values, noise=ProbabilisticNoise(p=0.2, seed=11), counter=QueryCounter()
            )
            return count_max(items, oracle, seed=5), oracle.counter.charged_queries

        direct_winner, direct_charged = direct()
        store = AnswerStore(tmp_path / "s")
        inner = ValueComparisonOracle(
            values, noise=ProbabilisticNoise(p=0.2, seed=11), counter=QueryCounter()
        )
        wrapped = StoredComparisonOracle(inner, store)
        assert count_max(items, wrapped, seed=5) == direct_winner
        assert wrapped.counter.charged_queries == direct_charged
        store.close()

    def test_kcenter_adversarial_cold_store_bit_identical(self, tmp_path):
        space = _space()

        def run(oracle):
            return kcenter_adversarial(oracle, k=4, seed=9)

        direct = run(
            DistanceQuadrupletOracle(
                space, noise=AdversarialNoise(mu=0.3), counter=QueryCounter()
            )
        )
        store = AnswerStore(tmp_path / "s")
        inner = DistanceQuadrupletOracle(
            space, noise=AdversarialNoise(mu=0.3), counter=QueryCounter()
        )
        served = run(StoredQuadrupletOracle(inner, store))
        assert served.centers == direct.centers
        assert served.assignment == direct.assignment
        store.close()

    def test_warm_store_halves_charged_queries(self, tmp_path):
        # The acceptance bar: a repeated seeded run against the warm store
        # must charge at least 50% fewer queries than the cold run (here it
        # charges none — every query is a warehouse hit).
        directory = tmp_path / "s"
        values = _values(40, seed=3)
        items = list(range(40))

        def run_once(noise_seed):
            store = AnswerStore(directory)
            inner = ValueComparisonOracle(
                values,
                noise=ProbabilisticNoise(p=0.2, seed=noise_seed),
                counter=QueryCounter(),
            )
            wrapped = StoredComparisonOracle(inner, store, counter=QueryCounter())
            winner = count_max(items, wrapped, seed=5)
            store.close()
            return winner, wrapped.counter

        cold_winner, cold_counter = run_once(noise_seed=11)
        warm_winner, warm_counter = run_once(noise_seed=77)  # different crowd!
        assert warm_winner == cold_winner  # the warehouse answers, not the new crowd
        assert cold_counter.charged_queries > 0
        assert warm_counter.charged_queries * 2 <= cold_counter.charged_queries
        assert warm_counter.charged_queries == 0
        assert warm_counter.hit_rate == 1.0

    def test_warm_store_kcenter_charges_nothing(self, tmp_path):
        directory = tmp_path / "s"
        space = _space()

        def run_once():
            store = AnswerStore(directory)
            inner = DistanceQuadrupletOracle(
                space, noise=AdversarialNoise(mu=0.3), counter=QueryCounter()
            )
            wrapped = StoredQuadrupletOracle(inner, store, counter=QueryCounter())
            result = kcenter_adversarial(wrapped, k=4, seed=9)
            store.close()
            return result, wrapped.counter

        cold, cold_counter = run_once()
        warm, warm_counter = run_once()
        assert warm.centers == cold.centers
        assert warm_counter.charged_queries * 2 <= cold_counter.charged_queries
        assert warm_counter.cached_queries == cold_counter.total_queries

    def test_scalar_and_batch_paths_equivalent(self, tmp_path):
        values = _values(25, seed=6)
        rng = np.random.default_rng(8)
        i = rng.integers(0, 25, size=120)
        j = rng.integers(0, 25, size=120)

        def build(directory):
            store = AnswerStore(directory)
            inner = ValueComparisonOracle(
                values, noise=ProbabilisticNoise(p=0.25, seed=4), counter=QueryCounter()
            )
            return store, StoredComparisonOracle(inner, store, counter=QueryCounter())

        store_a, scalar_oracle = build(tmp_path / "a")
        scalar_answers = [scalar_oracle.compare(int(a), int(b)) for a, b in zip(i, j)]
        store_b, batch_oracle = build(tmp_path / "b")
        batch_answers = batch_oracle.compare_batch(i, j)
        assert batch_answers.tolist() == scalar_answers
        assert batch_oracle.counter.snapshot() == scalar_oracle.counter.snapshot()
        store_a.close()
        store_b.close()

        # A key tied 1-1 is unresolved, so its first ask is charged.  That
        # vote breaks the tie for the fresh answer: the repeat is a hit and
        # reads the same answer as the store does afterwards.
        code = comparison_code(2, 9, 25)
        tie_answers = {}
        for path in ("scalar", "batch"):
            store, oracle = build(tmp_path / f"tie-{path}")
            store.add_votes([code, code], [True, False])
            if path == "scalar":
                answers = [oracle.compare(2, 9), oracle.compare(2, 9)]
            else:
                answers = oracle.compare_batch([2, 2], [9, 9]).tolist()
            assert answers[0] == answers[1] == store.lookup(code)
            assert oracle.counter.charged_queries == 1
            assert oracle.counter.cached_queries == 1
            tie_answers[path] = answers
            store.close()
        assert tie_answers["batch"] == tie_answers["scalar"]

    def test_orientation_consistency_served_from_store(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        inner = ValueComparisonOracle(
            _values(), noise=ProbabilisticNoise(p=0.4, seed=0), counter=QueryCounter()
        )
        wrapped = StoredComparisonOracle(inner, store)
        first = wrapped.compare(2, 5)
        assert wrapped.compare(5, 2) == (not first)  # reversed reads the same vote
        assert wrapped.counter.cached_queries == 1
        store.close()

    def test_self_comparisons_free_and_unstored(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        wrapped = StoredComparisonOracle(
            ValueComparisonOracle(_values(), noise=ExactNoise()), store
        )
        assert wrapped.compare(4, 4) is True
        assert wrapped.compare_batch([3, 3], [3, 3]).tolist() == [True, True]
        assert wrapped.counter.total_queries == 0
        assert len(store) == 0
        store.close()

    def test_out_of_range_index_rejected(self, tmp_path):
        store = AnswerStore(tmp_path / "s")
        wrapped = StoredComparisonOracle(
            ValueComparisonOracle(_values(10), noise=ExactNoise()), store
        )
        with pytest.raises(InvalidParameterError):
            wrapped.compare(0, 11)
        with pytest.raises(InvalidParameterError):
            wrapped.compare_batch([0, 1], [2, 99])
        store.close()

    def test_store_keys_match_inner_oracle_cache_keys(self, tmp_path):
        # Load-bearing invariant: the warehouse keys a query by the same
        # canonical int code the inner oracle uses for its answer cache and
        # noise persistence.  If the two encodings ever diverge, cold-store
        # bit-identity silently breaks — this pins them together for both
        # query kinds (comparison codes negative, quadruplet non-negative).
        values = _values(20, seed=1)
        rng = np.random.default_rng(2)
        store_c = AnswerStore(tmp_path / "c")
        inner_c = ValueComparisonOracle(
            values, noise=ProbabilisticNoise(p=0.2, seed=3), counter=QueryCounter()
        )
        StoredComparisonOracle(inner_c, store_c).compare_batch(
            rng.integers(0, 20, 60), rng.integers(0, 20, 60)
        )
        assert set(store_c.codes()) == set(inner_c._answer_cache)
        assert all(code < 0 for code in store_c.codes())
        store_c.close()

        space = _space(20, seed=1)
        store_q = AnswerStore(tmp_path / "q")
        inner_q = DistanceQuadrupletOracle(
            space, noise=ProbabilisticNoise(p=0.2, seed=3), counter=QueryCounter()
        )
        StoredQuadrupletOracle(inner_q, store_q).compare_batch(
            *(rng.integers(0, 20, 60) for _ in range(4))
        )
        assert set(store_q.codes()) == set(inner_q._answer_cache)
        assert all(code >= 0 for code in store_q.codes())
        store_q.close()

    def test_len_less_inner_oracle_rejected_clearly(self, tmp_path):
        from repro.oracles.base import FunctionComparisonOracle

        store = AnswerStore(tmp_path / "s")
        with pytest.raises(InvalidParameterError, match="sized inner oracle"):
            StoredComparisonOracle(FunctionComparisonOracle(lambda i, j: True), store)
        store.close()

    def test_stored_quadruplet_scalar_batch_equivalence(self, tmp_path):
        space = _space(15, seed=2)
        rng = np.random.default_rng(3)
        quads = rng.integers(0, 15, size=(4, 80))

        def build(directory):
            store = AnswerStore(directory)
            inner = DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.2, seed=7), counter=QueryCounter()
            )
            return store, StoredQuadrupletOracle(inner, store, counter=QueryCounter())

        store_a, scalar_oracle = build(tmp_path / "a")
        scalar = [
            scalar_oracle.compare(int(a), int(b), int(c), int(d))
            for a, b, c, d in zip(*quads)
        ]
        store_b, batch_oracle = build(tmp_path / "b")
        batched = batch_oracle.compare_batch(*quads)
        assert batched.tolist() == scalar
        assert batch_oracle.counter.snapshot() == scalar_oracle.counter.snapshot()
        store_a.close()
        store_b.close()


class TestStoreCli:
    def _populate(self, directory):
        with AnswerStore(directory, n_records=12) as store:
            store.add_votes([1, 1, 5], [True, True, False])

    def test_stats_human_and_json(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self._populate(directory)
        assert store_main(["stats", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "keys: 2" in out and "votes: 3" in out
        assert store_main(["stats", "--dir", directory, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_keys"] == 2
        assert payload["n_votes"] == 3

    def test_compact_and_clean(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self._populate(directory)
        assert store_main(["compact", "--dir", directory]) == 0
        assert "compacted 2 key(s)" in capsys.readouterr().out
        assert fmt.shard_snapshot_path(tmp_path / "s", 0).exists()
        # clean refuses without --yes, then removes everything with it.
        assert store_main(["clean", "--dir", directory]) == 2
        assert store_main(["clean", "--dir", directory, "--yes"]) == 0
        assert not fmt.manifest_path(tmp_path / "s").exists()
        assert not (tmp_path / "s" / fmt.SHARDS_DIR_NAME).exists()

    def test_stats_shards_breakdown(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        self._populate(directory)
        assert store_main(["stats", "--dir", directory, "--shards"]) == 0
        out = capsys.readouterr().out
        assert f"{DEFAULT_N_SHARDS} shard(s)" in out
        assert "shard    0:" in out

    def test_no_command_prints_help(self, capsys):
        assert store_main([]) == 2

    def test_v1_layout_reports_cli_error(self, tmp_path, capsys):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "wal.jsonl").write_text('{"format": 1}\n')
        assert store_main(["stats", "--dir", str(directory)]) == 1
        assert "error:" in capsys.readouterr().err


class TestServiceIntegration:
    def test_concurrent_sessions_share_the_warehouse(self, tmp_path):
        async def scenario():
            values = _values(30, seed=1)
            backend = ValueComparisonOracle(
                values, noise=ExactNoise(), counter=QueryCounter()
            )
            store = AnswerStore(tmp_path / "s")
            config = ServiceConfig(batch_window=0.005, latency=0.001)
            async with CrowdOracleService(
                comparison=backend, config=config, store=store
            ) as service:
                report = await run_comparison_load(
                    service,
                    n_sessions=4,
                    queries_per_session=20,
                    n_records=30,
                    seed=3,
                    shared_stream=True,
                )
            store.close()
            return report

        report = run_async(scenario())
        distinct = report["charged_queries"]
        # Whatever the interleaving, the totals are deterministic: each
        # distinct query is paid for exactly once across all four sessions.
        assert 0 < distinct < report["n_queries"]
        assert report["cached_queries"] == report["n_queries"] - distinct
        assert sum(s["charged_queries"] for s in report["sessions"]) == distinct
        assert any(s["cached_queries"] > 0 for s in report["sessions"])

    def test_second_service_run_is_all_hits(self, tmp_path):
        async def one_run(noise_seed):
            values = _values(30, seed=1)
            backend = ValueComparisonOracle(
                values,
                noise=ProbabilisticNoise(p=0.2, seed=noise_seed),
                counter=QueryCounter(),
            )
            store = AnswerStore(tmp_path / "s")
            async with CrowdOracleService(
                comparison=backend, config=ServiceConfig(), store=store
            ) as service:
                report = await run_comparison_load(
                    service,
                    n_sessions=4,
                    queries_per_session=15,
                    n_records=30,
                    seed=3,
                    shared_stream=True,
                )
            store.close()
            return report

        cold = run_async(one_run(noise_seed=1))
        warm = run_async(one_run(noise_seed=2))
        assert warm["charged_queries"] == 0
        assert warm["cached_queries"] == warm["n_queries"]
        # Same answers, although the warm run's crowd is seeded differently:
        # the warehouse answers, not the crowd.
        assert warm["yes_answers"] == cold["yes_answers"]
        assert warm["charged_queries"] * 2 <= cold["charged_queries"]

    def test_warehouse_hits_do_not_consume_budget(self, tmp_path):
        async def scenario():
            values = _values(30, seed=1)
            backend = ValueComparisonOracle(values, noise=ExactNoise())
            store = AnswerStore(tmp_path / "s")
            async with CrowdOracleService(
                comparison=backend, config=ServiceConfig(), store=store
            ) as service:
                payer = service.open_session()
                for k in range(10):
                    await payer.compare(k, k + 1)
                # A tightly budgeted session replaying the same queries is
                # served entirely from the warehouse and never charged.
                capped = service.open_session(budget=1)
                for k in range(10):
                    await capped.compare(k, k + 1)
                assert capped.counter.charged_queries == 0
                assert capped.counter.cached_queries == 10
                # A genuinely fresh query still charges (and here, overruns).
                await capped.compare(20, 21)
                with pytest.raises(QueryBudgetExceededError):
                    await capped.compare(22, 23)
            store.close()

        run_async(scenario())

    def test_store_with_both_backends_shares_one_keyspace(self, tmp_path):
        async def scenario():
            values = _values(18, seed=0)
            space = _space(18, seed=0)
            store = AnswerStore(tmp_path / "s")
            async with CrowdOracleService(
                comparison=ValueComparisonOracle(values, noise=ExactNoise()),
                quadruplet=DistanceQuadrupletOracle(space, noise=ExactNoise()),
                store=store,
            ) as service:
                session = service.open_session()
                assert await session.compare(0, 1) == (values[0] <= values[1])
                expected = space.distance(0, 1) <= space.distance(2, 3)
                assert await session.quadruplet(0, 1, 2, 3) == expected
                assert len(store) == 2  # one negative, one non-negative key
            store.close()

        run_async(scenario())