"""Tests for the lazy block-cached metric backend (`repro.metric.lazy`).

The load-bearing property is *exact* equivalence with the dense backend:
identical distances bit-for-bit, so seeded algorithm runs (noise draws,
tie-breaks, query accounting) are identical on either backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.datasets.synthetic import make_large_blobs_space, make_large_uniform_space
from repro.exceptions import InvalidParameterError
from repro.kcenter.greedy_exact import greedy_kcenter_exact
from repro.maximum.count_max import count_max
from repro.metric.distances import (
    cosine_distance,
    cross_distances,
    euclidean_distance,
    haversine_distance,
    manhattan_distance,
)
from repro.metric.lazy import BlockLRUCache, LazyBlockBackend
from repro.metric.space import PointCloudSpace
from repro.oracles.base import distance_comparison_view
from repro.oracles.counting import QueryCounter
from repro.oracles.noise import ProbabilisticNoise
from repro.oracles.quadruplet import DistanceQuadrupletOracle


def _spaces(n=400, d=5, seed=0, distance_fn=euclidean_distance, **lazy_kwargs):
    points = np.random.default_rng(seed).normal(size=(n, d))
    dense = PointCloudSpace(points, distance_fn=distance_fn)
    lazy = PointCloudSpace(
        points, distance_fn=distance_fn, backend="lazy", **lazy_kwargs
    )
    return dense, lazy


class TestBackendSelection:
    def test_auto_picks_dense_below_limit_and_lazy_above(self):
        points = np.zeros((100, 2))
        assert PointCloudSpace(points).backend == "dense"
        assert PointCloudSpace(points, cache_limit=50).backend == "lazy"

    def test_explicit_cache_true_keeps_dense(self):
        points = np.zeros((100, 2))
        space = PointCloudSpace(points, cache=True, cache_limit=50)
        assert space.backend == "dense"
        assert space._cache is not None

    def test_lazy_never_allocates_dense_state(self):
        points = np.zeros((100, 2))
        space = PointCloudSpace(points, backend="lazy")
        assert space._cache is None
        assert space.block_cache is not None

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            PointCloudSpace(np.zeros((4, 2)), backend="sparse")

    def test_dense_backend_has_no_block_cache(self):
        space = PointCloudSpace(np.zeros((10, 2)))
        assert space.block_cache is None
        assert space.backend_stats() == {}


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "distance_fn", [euclidean_distance, manhattan_distance], ids=["l2", "l1"]
    )
    def test_pair_distances_bit_identical(self, distance_fn, duplicate_heavy_pairs):
        dense, lazy = _spaces(distance_fn=distance_fn, block_size=64)
        eager = LazyBlockBackend(
            dense.points, distance_fn, block_size=64, materialize_threshold=1
        )
        rng = np.random.default_rng(1)
        i = rng.integers(0, len(dense), size=3000)
        j = rng.integers(0, len(dense), size=3000)
        for i, j in ((i, j), duplicate_heavy_pairs(len(dense))):
            expected = dense.pair_distances(i, j)
            assert np.array_equal(expected, lazy.pair_distances(i, j))
            assert np.array_equal(expected, eager.pair_distances(i, j))

    def test_pair_distances_identical_after_block_materialization(self):
        dense, lazy = _spaces(n=200, block_size=32, max_cached_blocks=64)
        # All pairs of a contiguous range concentrate in few blocks, forcing
        # materialisation; values must still match the dense direct path.
        a, b = np.triu_indices(120, k=1)
        assert np.array_equal(dense.pair_distances(a, b), lazy.pair_distances(a, b))
        assert lazy._lazy.materialized_blocks > 0
        # A repeat is served from the cache and stays identical.
        assert np.array_equal(dense.pair_distances(a, b), lazy.pair_distances(a, b))
        assert lazy.block_cache.hits > 0

    def test_haversine_blocks_bit_identical(self):
        latlon = np.random.default_rng(2).uniform(-60, 60, size=(150, 2))
        dense = PointCloudSpace(latlon, distance_fn=haversine_distance)
        lazy = PointCloudSpace(
            latlon, distance_fn=haversine_distance, backend="lazy", block_size=32
        )
        a, b = np.triu_indices(150, k=1)
        assert np.array_equal(dense.pair_distances(a, b), lazy.pair_distances(a, b))

    def test_distances_from_and_scalar_identical(self):
        dense, lazy = _spaces(block_size=64)
        for q in (0, 17, len(dense) - 1):
            assert np.array_equal(dense.distances_from(q), lazy.distances_from(q))
            subset = [3, 9, 200, q]
            assert np.array_equal(
                dense.distances_from(q, subset), lazy.distances_from(q, subset)
            )
        for i, j in [(0, 1), (5, 5), (399, 7)]:
            assert dense.distance(i, j) == lazy.distance(i, j)

    def test_equal_pairs_are_exactly_zero(self):
        _, lazy = _spaces(block_size=64)
        i = np.array([4, 7, 7, 0])
        j = np.array([4, 7, 2, 0])
        out = lazy.pair_distances(i, j)
        assert out[0] == 0.0 and out[1] == 0.0 and out[3] == 0.0 and out[2] > 0.0

    def test_non_batchable_fn_falls_back_to_scalar_loop(self):
        points = np.random.default_rng(3).normal(size=(50, 4))
        lazy = PointCloudSpace(points, distance_fn=cosine_distance, backend="lazy")
        assert lazy._lazy is None  # no block backend: scalar fallback
        i = np.array([0, 1, 2, 3])
        j = np.array([9, 8, 2, 40])
        expected = [lazy.distance(int(a), int(b)) for a, b in zip(i, j)]
        assert np.array_equal(lazy.pair_distances(i, j), np.asarray(expected))


class TestSeededAlgorithmEquivalence:
    """Acceptance: seeded results identical to the dense backend at n <= 2000."""

    def test_count_max_identical_under_persistent_noise(self):
        points = np.random.default_rng(5).normal(size=(2000, 6))
        winners, snapshots = [], []
        for backend in ("dense", "lazy"):
            space = PointCloudSpace(points, backend=backend)
            oracle = DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.15, seed=9), counter=QueryCounter()
            )
            view = distance_comparison_view(oracle, query=0)
            items = list(range(1, 2000, 7))
            winners.append(count_max(items, view, seed=3))
            snapshots.append(oracle.counter.snapshot())
        assert winners[0] == winners[1]
        assert snapshots[0] == snapshots[1]

    def test_greedy_kcenter_identical(self):
        points = np.random.default_rng(6).normal(size=(1500, 4))
        results = [
            greedy_kcenter_exact(PointCloudSpace(points, backend=backend), k=7, seed=11)
            for backend in ("dense", "lazy")
        ]
        assert results[0].centers == results[1].centers
        assert results[0].assignment == results[1].assignment


class TestParityAfterEdits:
    """Dense/lazy equivalence through a mutating live set.

    The incremental layer routes every query through
    :class:`~repro.incremental.view.MutableSpaceView`; these tests pin down
    that inserts and deletes never open a gap between the backends — the
    same seeded edit stream leaves both views answering ``distances_from``
    and ``pair_distances`` bit-identically over (and beyond) the live set.
    """

    def _edited_views(self, n_initial=150, n_ops=120, seed=13, block_size=32):
        from repro.incremental.edits import generate_edit_stream
        from repro.incremental.view import MutableSpaceView

        stream = generate_edit_stream(n_initial, n_ops, mix="balanced", seed=seed)
        views = []
        for backend in ("dense", "lazy"):
            base = PointCloudSpace(
                stream.points, backend=backend, block_size=block_size
            )
            view = MutableSpaceView(base, live=stream.initial_ids)
            for edit in stream.edits:
                view.apply(edit)
            views.append(view)
        dense_view, lazy_view = views
        assert dense_view.live_ids() == lazy_view.live_ids() == stream.replay_live()
        return dense_view, lazy_view

    def test_distances_from_identical_after_edits(self):
        dense_view, lazy_view = self._edited_views()
        live = np.asarray(dense_view.live_ids())
        for anchor in (live[0], live[len(live) // 2], live[-1]):
            dense_row = dense_view.distances_from(int(anchor), live)
            lazy_row = lazy_view.distances_from(int(anchor), live)
            assert np.array_equal(dense_row, lazy_row)

    def test_pair_distances_identical_after_edits(self):
        dense_view, lazy_view = self._edited_views()
        live = np.asarray(dense_view.live_ids())
        rng = np.random.default_rng(21)
        i = live[rng.integers(0, len(live), size=200)]
        j = live[rng.integers(0, len(live), size=200)]
        assert np.array_equal(
            dense_view.pair_distances(i, j), lazy_view.pair_distances(i, j)
        )
        # Identical accounting too: the cost ledgers difftest relies on do
        # not depend on the backend.
        assert dense_view.stats() == lazy_view.stats()

    def test_deleted_ids_still_answer_identically(self):
        # Deletion shrinks the live set, not the universe: rows that span
        # deleted ids stay backend-identical (the batch recompute in the
        # difftest reads them when a deleted record was an earlier anchor).
        dense_view, lazy_view = self._edited_views()
        deleted = sorted(
            set(range(len(dense_view.base))) - set(dense_view.live_ids())
        )
        assert deleted, "stream produced no deletes"
        probe = np.asarray(deleted[:50])
        assert np.array_equal(
            dense_view.distances_from(int(probe[0]), probe),
            lazy_view.distances_from(int(probe[0]), probe),
        )


class TestBlockLRUCache:
    def test_eviction_keeps_capacity(self):
        cache = BlockLRUCache(block_size=4, max_blocks=2)
        for key in [(0, 0), (0, 1), (1, 1)]:
            cache.put(key, np.zeros((4, 4)))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert (0, 0) not in cache  # least recently used went first
        assert cache.current_bytes <= cache.capacity_bytes

    def test_get_tracks_hits_misses_and_recency(self):
        cache = BlockLRUCache(block_size=4, max_blocks=2)
        cache.put((0, 0), np.zeros((4, 4)))
        cache.put((0, 1), np.ones((4, 4)))
        assert cache.get((0, 0)) is not None  # (0, 0) becomes most recent
        cache.put((1, 1), np.zeros((4, 4)))  # evicts (0, 1)
        assert (0, 1) not in cache and (0, 0) in cache
        assert cache.get((9, 9)) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BlockLRUCache(block_size=0)
        with pytest.raises(InvalidParameterError):
            BlockLRUCache(max_blocks=0)


class TestLazyBlockBackend:
    def test_scattered_pairs_compute_direct(self):
        points = np.random.default_rng(7).normal(size=(256, 3))
        backend = LazyBlockBackend(points, euclidean_distance, block_size=16)
        i = np.arange(0, 255, 17, dtype=np.int64)
        j = (i + 111) % 256
        backend.pair_distances(i, j)
        assert backend.materialized_blocks == 0
        assert backend.direct_pairs == len(i)

    def test_count_max_round_evaluates_each_distinct_cell_once(self):
        # One anchor against every pair of a sample, as count_scores sends
        # it: O(q, x, q, y) for x < y.  The anchor sits mid-range, so its
        # pairs land in both orientations after canonicalisation.
        n, q, block_size = 512, 257, 16
        points = np.random.default_rng(12).normal(size=(n, 4))
        others = np.delete(np.arange(n), q)
        sample = np.sort(np.random.default_rng(13).choice(others, 96, replace=False))
        a_pos, b_pos = np.triu_indices(len(sample), k=1)
        anchor = np.full(len(a_pos), q)
        requests = []

        def ask(backend):
            space = PointCloudSpace(points, backend=backend, block_size=block_size)
            oracle = DistanceQuadrupletOracle(
                space, noise=ProbabilisticNoise(p=0.1, seed=4), counter=QueryCounter()
            )
            if space._lazy is not None:
                serve = space._lazy.pair_distances

                def spy(i, j):
                    requests.append(set(zip(i.tolist(), j.tolist())))
                    return serve(i, j)

                space._lazy.pair_distances = spy
            return space, oracle.compare_batch(anchor, sample[a_pos], anchor, sample[b_pos])

        _, expected = ask("dense")
        lazy, answers = ask("lazy")
        assert np.array_equal(expected, answers)
        # The oracle sends every pair as (lo, hi), already an upper-block
        # cell; the two legs of the round hold ~one cell per sample record.
        distinct = sum(len(cells) for cells in requests)
        assert len(requests) == 2 and distinct <= 2 * len(sample)
        assert lazy.backend_stats()["materialized_blocks"] == 0
        assert lazy.backend_stats()["direct_pairs"] == distinct

    def test_materialize_threshold_is_respected(self):
        points = np.random.default_rng(8).normal(size=(64, 3))
        backend = LazyBlockBackend(
            points, euclidean_distance, block_size=32, materialize_threshold=10
        )
        inside = np.arange(12, dtype=np.int64)  # 12 pairs in block (0, 0)
        backend.pair_distances(inside, inside[::-1])
        assert backend.materialized_blocks == 1
        assert (0, 0) in backend.cache

    def test_pair_chunk_bounds_do_not_change_results(self):
        points = np.random.default_rng(9).normal(size=(100, 3))
        small = LazyBlockBackend(points, euclidean_distance, block_size=8, pair_chunk=7)
        big = LazyBlockBackend(points, euclidean_distance, block_size=8, pair_chunk=10_000)
        rng = np.random.default_rng(10)
        i = rng.integers(0, 100, size=500)
        j = rng.integers(0, 100, size=500)
        assert np.array_equal(small.pair_distances(i, j), big.pair_distances(i, j))
        q = np.arange(100, dtype=np.int64)
        assert np.array_equal(small.distances_from(3, q), big.distances_from(3, q))

    def test_stats_shape(self):
        points = np.zeros((10, 2))
        backend = LazyBlockBackend(points, euclidean_distance, block_size=4, max_blocks=2)
        stats = backend.stats()
        for key in ("blocks", "hits", "misses", "capacity_bytes", "direct_pairs"):
            assert key in stats


class TestCrossDistances:
    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(11)
        rows, cols = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        block = cross_distances(euclidean_distance, rows, cols)
        assert block.shape == (6, 4)
        for a in range(6):
            for b in range(4):
                assert block[a, b] == euclidean_distance(rows[a], cols[b])

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidParameterError):
            cross_distances(euclidean_distance, np.zeros(3), np.zeros((2, 3)))


class TestLargeNGenerators:
    def test_large_uniform_is_lazy_with_no_dense_state(self):
        space = make_large_uniform_space(300, dimension=3, seed=0)
        assert space.backend == "lazy"
        assert space._cache is None
        assert len(space) == 300

    def test_large_blobs_keeps_labels(self):
        space = make_large_blobs_space(200, n_clusters=8, seed=1)
        assert space.backend == "lazy"
        assert space.labels is not None
        assert set(space.labels.tolist()) == set(range(8))

    def test_cache_knobs_thread_through(self):
        space = make_large_uniform_space(100, seed=0, block_size=16, max_cached_blocks=3)
        assert space.block_cache.block_size == 16
        assert space.block_cache.max_blocks == 3

    def test_generators_validate(self):
        with pytest.raises(InvalidParameterError):
            make_large_uniform_space(0)
        with pytest.raises(InvalidParameterError):
            make_large_blobs_space(5, n_clusters=10)

    def test_registry_exposes_large_datasets(self):
        assert "uniform-large" in DATASET_NAMES
        assert "dblp-large" in DATASET_NAMES
        space = load_dataset("uniform-large", n_points=50, seed=0)
        assert space.backend == "lazy" and len(space) == 50
        space = load_dataset("dblp-large", n_points=60, seed=0)
        assert space.backend == "lazy" and space.labels is not None
