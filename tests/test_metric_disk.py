"""Tests for the disk-spill metric backend (`repro.metric.lazy.DiskBlockBackend`).

The contract mirrors the lazy backend's: *exact* bit-for-bit equivalence
with the dense and lazy backends, so seeded algorithm runs (noise draws,
tie-breaks, query ledgers) are identical on any of the three.  On top of
that, the disk backend must actually reload spilled state instead of
recomputing it — the counters asserted here are the same evidence the
scaling bench records.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.hierarchical import exact_linkage
from repro.kcenter.greedy_exact import greedy_kcenter_exact
from repro.kcenter.objective import kcenter_objective
from repro.maximum.count_max import count_max
from repro.metric.distances import euclidean_distance, manhattan_distance
from repro.metric.lazy import DiskBlockBackend, LazyBlockBackend
from repro.metric.space import PointCloudSpace
from repro.oracles.base import distance_comparison_view
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle

BACKENDS = ("dense", "lazy", "disk")


def _space(points, backend, **kwargs):
    if backend == "dense":
        kwargs.pop("block_size", None)
        kwargs.pop("max_cached_blocks", None)
    return PointCloudSpace(points, backend=backend, **kwargs)


def _all_spaces(n=400, d=5, seed=0, **kwargs):
    points = np.random.default_rng(seed).normal(size=(n, d))
    return [_space(points, backend, **kwargs) for backend in BACKENDS]


class TestBackendSelection:
    def test_auto_three_tier(self):
        points = np.zeros((100, 2))
        assert PointCloudSpace(points).backend == "dense"
        assert PointCloudSpace(points, cache_limit=50).backend == "lazy"
        assert (
            PointCloudSpace(points, cache_limit=50, disk_limit=80).backend == "disk"
        )

    def test_explicit_cache_true_beats_disk_tier(self):
        points = np.zeros((100, 2))
        space = PointCloudSpace(points, cache=True, cache_limit=50, disk_limit=80)
        assert space.backend == "dense"

    def test_explicit_disk_below_limits(self):
        space = PointCloudSpace(np.zeros((20, 2)), backend="disk")
        assert space.backend == "disk"
        assert isinstance(space._lazy, DiskBlockBackend)
        assert space._cache is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="disk"):
            PointCloudSpace(np.zeros((4, 2)), backend="sparse")

    def test_spill_dir_is_used_and_survives_close(self, tmp_path):
        spill = tmp_path / "spill"
        space = PointCloudSpace(
            np.random.default_rng(0).normal(size=(64, 3)),
            backend="disk",
            spill_dir=spill,
        )
        space.distances_from(0)
        assert (spill / "blocks.rblk").exists()
        space._lazy.close()
        # A caller-provided directory is never deleted by the backend.
        assert spill.exists()

    def test_owned_spill_dir_removed_on_close(self):
        backend = DiskBlockBackend(
            np.random.default_rng(0).normal(size=(32, 3)), euclidean_distance
        )
        spill_dir = backend.spill_dir
        assert spill_dir.exists()
        backend.close()
        assert not spill_dir.exists()


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "distance_fn", [euclidean_distance, manhattan_distance], ids=["l2", "l1"]
    )
    def test_pair_distances_bit_identical(self, distance_fn, duplicate_heavy_pairs):
        dense, lazy, disk = _all_spaces(
            distance_fn=distance_fn, block_size=64, max_cached_blocks=4
        )
        eager = DiskBlockBackend(
            dense.points, distance_fn, block_size=64, max_blocks=4,
            materialize_threshold=1,
        )
        rng = np.random.default_rng(1)
        i = rng.integers(0, len(dense), size=3000)
        j = rng.integers(0, len(dense), size=3000)
        for i, j in ((i, j), duplicate_heavy_pairs(len(dense))):
            expected = dense.pair_distances(i, j)
            assert np.array_equal(expected, lazy.pair_distances(i, j))
            assert np.array_equal(expected, disk.pair_distances(i, j))
            assert np.array_equal(expected, eager.pair_distances(i, j))
        eager.close()

    def test_reloaded_blocks_bit_identical(self):
        points = np.random.default_rng(2).normal(size=(256, 4))
        lazy = LazyBlockBackend(
            points, euclidean_distance, block_size=32, max_blocks=2,
            materialize_threshold=1,
        )
        disk = DiskBlockBackend(
            points, euclidean_distance, block_size=32, max_blocks=2,
            materialize_threshold=1,
        )
        # Repeated scattered sweeps overflow a two-block cache, forcing the
        # disk backend through spill -> evict -> reload cycles.
        for trial in range(4):
            rng = np.random.default_rng(trial)
            i = rng.integers(0, 256, size=500)
            j = rng.integers(0, 256, size=500)
            assert np.array_equal(
                lazy.pair_distances(i, j), disk.pair_distances(i, j)
            )
        stats = disk.stats()
        assert stats["spills"] > 0
        assert stats["reloads"] > 0
        # Scalar lookups ride the same reloaded blocks.
        for i, j in [(0, 255), (100, 40), (7, 7)]:
            assert lazy.distance(i, j) == disk.distance(i, j)
        disk.close()

    def test_rows_serve_subsets_bit_identically(self):
        dense, lazy, disk = _all_spaces(n=300)
        full = np.arange(300)
        for anchor in (0, 123, 299):
            expected = dense.distances_from(anchor, full)
            assert np.array_equal(expected, disk.distances_from(anchor, full))
        assert disk._lazy.rows_stored == 3
        # Later subset requests are fancy-indexed out of the stored row.
        subset = [5, 123, 0, 299, 7]
        for anchor in (0, 123, 299):
            assert np.array_equal(
                dense.distances_from(anchor, subset),
                disk.distances_from(anchor, subset),
            )
        assert disk._lazy.reloads >= 3

    def test_constant_anchor_pairs_store_then_reload_row(self):
        dense, lazy, disk = _all_spaces(n=400)
        rng = np.random.default_rng(3)
        q = np.zeros(200, dtype=int)  # 200 >= row_threshold = 400 // 4
        t = rng.integers(0, 400, size=200)
        expected = dense.pair_distances(q, t)
        assert np.array_equal(expected, disk.pair_distances(q, t))
        assert disk._lazy.rows_stored == 1
        before = disk._lazy.reloads
        assert np.array_equal(expected, disk.pair_distances(q, t))
        assert disk._lazy.reloads > before
        # Constant second leg hits the same row store.
        assert np.array_equal(
            dense.pair_distances(t, q), disk.pair_distances(t, q)
        )

    def test_small_constant_batches_skip_the_row_store(self):
        dense, lazy, disk = _all_spaces(n=400)
        q = np.full(10, 7)  # 10 < row_threshold = 100: not worth n evaluations
        t = np.arange(10) * 3
        assert np.array_equal(
            dense.pair_distances(q, t), disk.pair_distances(q, t)
        )
        assert disk._lazy.rows_stored == 0


class TestSeededAlgorithmEquivalence:
    """Acceptance: seeded results identical across dense, lazy and disk."""

    def test_count_max_identical_under_persistent_noise(self):
        points = np.random.default_rng(5).normal(size=(2000, 6))
        winners, snapshots = [], []
        for backend in BACKENDS:
            space = _space(points, backend)
            oracle = DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.15, seed=9), counter=QueryCounter()
            )
            view = distance_comparison_view(oracle, query=0)
            items = list(range(1, 2000, 7))
            winners.append(count_max(items, view, seed=3))
            snapshots.append(oracle.counter.snapshot())
        assert winners[0] == winners[1] == winners[2]
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_mid_cloud_count_max_spills_nothing(self):
        # A query record in the middle of the index range is the lo record
        # of some of its pairs and the hi record of the others, so no batch
        # has a constant column for the row store to spot.  Each Count-Max
        # leg still holds one distinct cell per sample record: too few per
        # block to materialise one.
        n, q = 60_000, 30_000
        points = np.random.default_rng(14).uniform(size=(n, 8))
        others = np.delete(np.arange(n), q)
        sample = np.random.default_rng(15).choice(others, 512, replace=False).tolist()
        runs = []
        for backend in ("lazy", "disk"):
            space = _space(points, backend)
            oracle = DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.1, seed=9), counter=QueryCounter()
            )
            view = distance_comparison_view(oracle, query=q)
            runs.append((count_max(sample, view, seed=3), oracle.counter.charged_queries))
            stats = space.backend_stats()
            assert stats["materialized_blocks"] == 0
            if backend == "disk":
                assert stats["spills"] == stats["rows_stored"] == 0
                space._lazy.close()
        assert runs[0] == runs[1]

    def test_greedy_kcenter_identical(self):
        points = np.random.default_rng(6).normal(size=(1500, 4))
        results, objectives = [], []
        for backend in BACKENDS:
            space = _space(points, backend)
            result = greedy_kcenter_exact(space, k=7, seed=11)
            results.append(result)
            objectives.append(kcenter_objective(space, result))
        assert results[0].centers == results[1].centers == results[2].centers
        assert (
            results[0].assignment == results[1].assignment == results[2].assignment
        )
        assert objectives[0] == objectives[1] == objectives[2]

    def test_exact_linkage_identical(self):
        points = np.random.default_rng(7).normal(size=(120, 3))
        dendros = [
            exact_linkage(_space(points, backend), linkage="single")
            for backend in BACKENDS
        ]
        for other in dendros[1:]:
            assert [
                (s.left, s.right, s.true_distance) for s in dendros[0].merges
            ] == [(s.left, s.right, s.true_distance) for s in other.merges]


class TestParityAfterEdits:
    """Three-way backend equivalence through a mutating live set."""

    def _edited_views(self, n_initial=150, n_ops=120, seed=13, block_size=32):
        from repro.incremental.edits import generate_edit_stream
        from repro.incremental.view import MutableSpaceView

        stream = generate_edit_stream(n_initial, n_ops, mix="balanced", seed=seed)
        views = []
        for backend in BACKENDS:
            base = _space(stream.points, backend, block_size=block_size)
            view = MutableSpaceView(base, live=stream.initial_ids)
            for edit in stream.edits:
                view.apply(edit)
            views.append(view)
        assert {tuple(v.live_ids()) for v in views} == {
            tuple(stream.replay_live())
        }
        return views

    def test_distances_and_ledgers_identical_after_edits(self):
        dense_view, lazy_view, disk_view = self._edited_views()
        live = np.asarray(dense_view.live_ids())
        for anchor in (live[0], live[len(live) // 2], live[-1]):
            expected = dense_view.distances_from(int(anchor), live)
            assert np.array_equal(
                expected, lazy_view.distances_from(int(anchor), live)
            )
            assert np.array_equal(
                expected, disk_view.distances_from(int(anchor), live)
            )
        rng = np.random.default_rng(21)
        i = live[rng.integers(0, len(live), size=200)]
        j = live[rng.integers(0, len(live), size=200)]
        expected = dense_view.pair_distances(i, j)
        assert np.array_equal(expected, lazy_view.pair_distances(i, j))
        assert np.array_equal(expected, disk_view.pair_distances(i, j))
        # Identical accounting: the cost ledgers difftest relies on do not
        # depend on which backend answered.
        assert dense_view.stats() == lazy_view.stats() == disk_view.stats()


class TestXlGenerators:
    def test_xl_registry_entries_exist_at_million_point_defaults(self):
        from repro.datasets.registry import DATASET_NAMES, DEFAULT_SIZES

        assert "uniform-xl" in DATASET_NAMES and "blobs-xl" in DATASET_NAMES
        assert DEFAULT_SIZES["uniform-xl"] == 1_000_000
        assert DEFAULT_SIZES["blobs-xl"] == 1_000_000

    def test_auto_resolves_disk_above_the_lazy_limit(self):
        from repro.datasets.synthetic import make_large_uniform_space
        from repro.metric.space import DEFAULT_DISK_LIMIT

        space = make_large_uniform_space(500, seed=0)
        assert space.backend == "lazy"
        assert DEFAULT_DISK_LIMIT == 200_000  # the tier boundary under test

    def test_explicit_disk_honoured_at_small_n(self):
        from repro.datasets.synthetic import make_large_blobs_space

        space = make_large_blobs_space(300, n_clusters=4, backend="disk", seed=0)
        assert space.backend == "disk"
        assert space.labels is not None

    def test_dense_refused_above_cache_limit(self):
        from repro.datasets.synthetic import (
            make_large_blobs_space,
            make_large_uniform_space,
        )

        with pytest.raises(InvalidParameterError, match="refuse dense"):
            make_large_uniform_space(5000, backend="dense", seed=0)
        with pytest.raises(InvalidParameterError, match="refuse dense"):
            make_large_blobs_space(5000, backend="dense", seed=0)
        # Below the limit an explicit dense space is still allowed.
        assert make_large_uniform_space(100, backend="dense").backend == "dense"


class TestDiskBackendInternals:
    def test_stats_shape(self):
        backend = DiskBlockBackend(
            np.random.default_rng(0).normal(size=(64, 3)), euclidean_distance
        )
        stats = backend.stats()
        for key in ("spills", "reloads", "rows_stored", "spill_bytes", "hits"):
            assert key in stats
        assert stats["spills"] == stats["reloads"] == stats["rows_stored"] == 0
        backend.close()

    def test_re_eviction_never_rewrites_a_block(self):
        points = np.random.default_rng(4).normal(size=(128, 3))
        backend = DiskBlockBackend(
            points, euclidean_distance, block_size=16, max_blocks=2,
            materialize_threshold=1,
        )
        a, b = np.triu_indices(128, k=1)
        n_blocks = 8 * (8 + 1) // 2  # upper triangle of 128/16 block grid
        backend.pair_distances(a, b)
        first_spills = backend.spills
        assert first_spills > 0
        backend.pair_distances(a, b)  # reload + re-evict every block
        # The only new spills are the two blocks that were still cached at
        # the end of the first pass; nothing already on disk is rewritten.
        assert backend.spills <= n_blocks
        assert backend._block_file.stats()["slots_written"] == backend.spills
        backend.close()

    def test_spill_files_hold_real_bytes(self, tmp_path):
        backend = DiskBlockBackend(
            np.random.default_rng(8).normal(size=(100, 2)),
            euclidean_distance,
            block_size=16,
            max_blocks=1,
            materialize_threshold=1,
            spill_dir=tmp_path,
        )
        a, b = np.triu_indices(100, k=1)
        backend.pair_distances(a, b)
        backend.distances_from(0, np.arange(100))
        stats = backend.stats()
        on_disk = sum(
            os.path.getsize(tmp_path / name)
            for name in ("blocks.rblk", "rows.rblk")
        )
        assert stats["spill_bytes"] == on_disk > 0
        backend.close()

    def test_row_threshold_override(self):
        backend = DiskBlockBackend(
            np.random.default_rng(9).normal(size=(200, 2)),
            euclidean_distance,
            row_threshold=5,
        )
        q = np.full(6, 3)
        t = np.arange(6) * 10
        backend.pair_distances(q, t)
        assert backend.rows_stored == 1
        backend.close()
