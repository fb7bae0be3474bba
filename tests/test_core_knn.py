"""Tests for the k-NN searchers (§3.3)."""

import numpy as np
import pytest

from repro import Database, KdTreeIndex
from repro.core import (
    knn_best_first,
    knn_boundary_points,
    knn_brute_force,
)
from repro.core.knn import NeighborList


class TestNeighborList:
    def test_worst_before_full(self):
        lst = NeighborList(3)
        lst.offer(np.array([1.0]), np.array([7]))
        assert lst.worst == float("inf")

    def test_keeps_best_k(self):
        lst = NeighborList(2)
        lst.offer(np.array([3.0, 1.0, 2.0]), np.array([30, 10, 20]))
        rows, dists = lst.finish()
        assert rows.tolist() == [10, 20]
        assert dists.tolist() == [1.0, 2.0]

    def test_safe_count(self):
        lst = NeighborList(3)
        lst.offer(np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3]))
        assert lst.safe_count(2.5) == 2
        assert lst.safe_count(0.5) == 0

    def test_merge_across_offers(self):
        lst = NeighborList(2)
        lst.offer(np.array([5.0]), np.array([50]))
        lst.offer(np.array([1.0]), np.array([10]))
        lst.offer(np.array([3.0]), np.array([30]))
        rows, _ = lst.finish()
        assert rows.tolist() == [10, 30]


class TestAgreement:
    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_all_methods_agree_on_distances(self, kd_index, k):
        rng = np.random.default_rng(101)
        for _ in range(10):
            query = rng.normal([1.5, 1.0, 0.5], 1.5)
            truth = knn_brute_force(kd_index.table, kd_index.dims, query, k)
            bp = knn_boundary_points(kd_index, query, k)
            bf = knn_best_first(kd_index, query, k)
            assert np.allclose(bp.distances, truth.distances)
            assert np.allclose(bf.distances, truth.distances)

    def test_row_ids_match_on_unique_distances(self, kd_index):
        rng = np.random.default_rng(5)
        query = rng.normal(size=3)
        truth = knn_brute_force(kd_index.table, kd_index.dims, query, 10)
        bp = knn_boundary_points(kd_index, query, 10)
        assert set(bp.row_ids.tolist()) == set(truth.row_ids.tolist())

    def test_query_far_outside_data(self, kd_index):
        query = np.array([50.0, 50.0, 50.0])
        truth = knn_brute_force(kd_index.table, kd_index.dims, query, 5)
        bp = knn_boundary_points(kd_index, query, 5)
        assert np.allclose(bp.distances, truth.distances)

    def test_query_on_a_data_point(self, kd_index, clustered_points_3d):
        query = clustered_points_3d[123]
        bp = knn_boundary_points(kd_index, query, 1)
        assert np.isclose(bp.distances[0], 0.0)

    def test_k_larger_than_table(self, kd_index, clustered_points_3d):
        n = len(clustered_points_3d)
        result = knn_boundary_points(kd_index, np.zeros(3), n + 50)
        assert result.k == n
        assert (np.diff(result.distances) >= 0).all()


class TestEfficiency:
    def test_boundary_points_examines_few_boxes(self, kd_index):
        rng = np.random.default_rng(7)
        total_boxes = kd_index.tree.num_leaves
        for _ in range(10):
            query = rng.normal([0.0, 0.0, 0.0], 0.3)
            result = knn_boundary_points(kd_index, query, 5)
            assert result.stats.extra["boxes_examined"] < total_boxes / 2

    def test_fallback_rarely_needed(self, kd_index):
        # The exactness sweep should almost never find boxes the
        # boundary-point discovery missed.
        rng = np.random.default_rng(8)
        fallbacks = 0
        for _ in range(30):
            query = rng.normal([1.5, 1.0, 0.5], 1.0)
            result = knn_boundary_points(kd_index, query, 8)
            fallbacks += result.stats.extra["fallback_boxes"]
        assert fallbacks <= 3

    def test_pages_touched_less_than_full_scan(self, kd_index):
        query = np.array([0.1, 0.1, 0.1])
        truth = knn_brute_force(kd_index.table, kd_index.dims, query, 10)
        bp = knn_boundary_points(kd_index, query, 10)
        assert bp.stats.pages_touched < truth.stats.pages_touched

    @pytest.mark.parametrize("search", [knn_boundary_points, knn_best_first])
    def test_pages_touched_equals_pool_lookups(self, search):
        """Each leaf fetch counts its pages: the sum is the pool's data-page lookups."""
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(20_000, 3))
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(
            db, "knn_pages", {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2]}, ["x", "y", "z"]
        )
        search(index, np.zeros(3), 10)  # the first query also looks up node pages
        io = db.io_stats
        before = io.cache_hits + io.cache_misses
        pages = sum(search(index, q, 10).stats.pages_touched for q in pts[:20])
        assert io.cache_hits + io.cache_misses - before == pages

    def test_results_sorted_ascending(self, kd_index):
        result = knn_boundary_points(kd_index, np.zeros(3), 20)
        assert (np.diff(result.distances) >= 0).all()


class TestValidation:
    def test_k_must_be_positive(self, kd_index):
        with pytest.raises(ValueError):
            knn_boundary_points(kd_index, np.zeros(3), 0)
        with pytest.raises(ValueError):
            knn_best_first(kd_index, np.zeros(3), 0)
        with pytest.raises(ValueError):
            knn_brute_force(kd_index.table, kd_index.dims, np.zeros(3), 0)
