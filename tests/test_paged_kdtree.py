"""Differential and hygiene tests for the paged kd-tree, the one serving tree.

The contract under test: a :class:`~repro.core.kdpaged.PagedKdTree`
serving node pages through the buffer pool -- under a node-cache budget
deliberately too small to hold the tree -- serves exactly the node
arrays the build computed, and answers every read path (solo, batched,
sharded, k-NN, under ingest churn) row-identically to a full scan.
Plus the cache-hygiene half: generation swaps and index drops must
never leave a stale node page reachable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Box,
    Database,
    KdPartitioner,
    KdTreeIndex,
    Polyhedron,
    ScatterGatherExecutor,
    attach_database,
    knn_best_first,
    knn_boundary_points,
    knn_brute_force,
    merge_table,
    save_catalog,
)
from repro.core.batch import batch_kd_query
from repro.core.index_base import stack_coordinates
from repro.core.kdpaged import PagedKdTree
from repro.core.kdtree import KdTree
from repro.core.queries import polyhedron_full_scan
from repro.service import rows_equal

DIMS = ["x", "y", "z"]
NUM_ROWS = 4096
#: 11 levels = 2047 nodes = 4 node pages at 512 nodes/page: enough pages
#: that a tiny budget forces real evictions.
NUM_LEVELS = 11
#: Far below one decoded node page (~70 KB), so every page admission
#: evicts the previous one -- the cache is always under pressure.
TINY_CACHE = 1 << 14

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

pytestmark = pytest.mark.faultsweep


def _make_data(seed: int = 13) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0], [0.5, 0.3, 0.7], size=(NUM_ROWS // 2, 3)),
            rng.normal([3.0, 2.0, 1.0], [0.9, 0.6, 0.4], size=(NUM_ROWS // 2, 3)),
        ]
    )
    data = {d: points[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(NUM_ROWS, dtype=np.int64)
    return data


def _oids(rows: dict) -> frozenset[int]:
    return frozenset(int(v) for v in rows["oid"])


@pytest.fixture(scope="module")
def paged_pair():
    """One dataset behind a paged kd index, plus the same build's
    :class:`~repro.core.kdtree.KdTree` (the arrays it was paged from).

    The paged side runs with a node-cache budget far below one page, so
    every cross-page traversal evicts -- correctness must not depend on
    residency.
    """
    data = _make_data()
    db = Database.in_memory(buffer_pages=None, index_cache_bytes=TINY_CACHE)
    paged = KdTreeIndex.build(db, "pg", dict(data), DIMS, num_levels=NUM_LEVELS)
    built = KdTree(stack_coordinates(data, DIMS), num_levels=NUM_LEVELS)
    assert isinstance(paged.tree, PagedKdTree)
    assert paged.tree.layout.num_pages >= 4
    return db, paged, built


def _scan(index, polyhedron) -> dict:
    rows, _ = polyhedron_full_scan(index.table, DIMS, polyhedron)
    return rows


_center = st.floats(min_value=-2.0, max_value=5.0, allow_nan=False)
_width = st.floats(min_value=0.05, max_value=6.0, allow_nan=False)
_box_strategy = st.tuples(
    st.tuples(_center, _center, _center), st.tuples(_width, _width, _width)
)


def _box_from_draws(centers, widths) -> Box:
    lo = np.asarray(centers) - np.asarray(widths) / 2.0
    hi = np.asarray(centers) + np.asarray(widths) / 2.0
    return Box(lo, hi)


class TestStructuralEquivalence:
    def test_paged_tree_mirrors_in_memory_nodes(self, paged_pair):
        # Built arrays equal served arrays, node by node through pages.
        _, paged, built = paged_pair
        arrays = built.export_node_arrays()
        served = paged.tree
        nodes = range(1, 2 * built.first_leaf)
        assert [served.post_order_id(n) for n in nodes] == arrays["post_order"][1:].tolist()
        for name, position in (("seg_start", 0), ("seg_end", 1)):
            got = [served.node_rows(n)[position] for n in nodes]
            assert got == arrays[name][1:].tolist()
        for kind in ("partition", "tight"):
            for side in ("lo", "hi"):
                want = arrays[f"{kind}_{side}"][1:]
                box_of = served.partition_box if kind == "partition" else served.tight_box
                got = np.array([getattr(box_of(n), side) for n in nodes])
                finite = np.isfinite(want).all(axis=1)
                assert np.array_equal(got[finite], want[finite])
        inner = range(1, built.first_leaf)
        assert [served.split_plane(n) for n in inner] == [
            (int(arrays["split_axis"][n]), float(arrays["split_value"][n])) for n in inner
        ]

    def test_leaf_statistics_identical(self, paged_pair):
        _, paged, built = paged_pair
        assert paged.tree.leaf_statistics() == built.leaf_statistics()


class TestQueryDifferential:
    @_SETTINGS
    @given(draw=_box_strategy)
    def test_solo_queries_row_identical(self, paged_pair, draw):
        _, paged, _ = paged_pair
        polyhedron = Polyhedron.from_box(_box_from_draws(*draw))
        truth = _scan(paged, polyhedron)
        for tight in (True, False):
            rows, _ = paged.query_polyhedron(polyhedron, use_tight_boxes=tight)
            assert rows_equal(rows, truth)

    def test_batched_queries_row_identical(self, paged_pair):
        _, paged, _ = paged_pair
        rng = np.random.default_rng(21)
        polys = []
        for _ in range(6):
            center = rng.uniform([-1, -1, -1], [4, 3, 2])
            widths = rng.uniform(0.2, 4.0, size=3)
            polys.append(
                Polyhedron.from_box(Box(center - widths / 2, center + widths / 2))
            )
        results, _ = batch_kd_query(paged, polys)
        for poly, (rows, _, err) in zip(polys, results):
            assert err is None
            assert _oids(rows) == _oids(_scan(paged, poly))

    @_SETTINGS
    @given(
        point=st.tuples(
            st.floats(min_value=-2.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=-2.0, max_value=4.0, allow_nan=False),
            st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
        ),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_knn_identical(self, paged_pair, point, k):
        _, paged, _ = paged_pair
        query = np.asarray(point, dtype=np.float64)
        truth = knn_brute_force(paged.table, DIMS, query, k)
        for searcher in (knn_boundary_points, knn_best_first):
            got = searcher(paged, query, k)
            assert np.allclose(got.distances, truth.distances)

    def test_eviction_pressure_actually_happened(self, paged_pair):
        # The whole differential ran under a 16 KB budget over a >=4-page
        # tree; if nothing was ever evicted, the budget did not bite and
        # this module is not testing what it claims to.
        db, paged, _ = paged_pair
        io = db.io_stats.as_dict()
        assert io["node_cache_evictions"] > 0
        assert io["node_cache_misses"] > 0
        assert io["index_pages_decoded"] > 0
        assert paged.tree.resident_bytes > 0


class TestShardedDifferential:
    def test_thread_sharded_matches_scan(self):
        data = _make_data(seed=29)
        db = Database.in_memory(buffer_pages=None)
        plain = db.create_table("plain", dict(data))
        shard_set = KdPartitioner(
            4, buffer_pages=None, index_cache_bytes=TINY_CACHE
        ).partition("pgshard", dict(data), DIMS)
        executor = ScatterGatherExecutor(shard_set)
        try:
            # Every shard must actually serve a paged tree.
            for shard in shard_set:
                assert isinstance(shard.index.tree, PagedKdTree)
            rng = np.random.default_rng(3)
            for _ in range(8):
                center = rng.uniform([-1, -1, -1], [4, 3, 2])
                widths = rng.uniform(0.2, 4.0, size=3)
                poly = Polyhedron.from_box(
                    Box(center - widths / 2, center + widths / 2)
                )
                sharded = executor.execute(poly)
                scan_rows, _ = polyhedron_full_scan(plain, DIMS, poly)
                assert _oids(sharded.rows) == _oids(scan_rows)
                assert not sharded.partial
        finally:
            executor.close()

    def test_process_sharded_matches_scan(self):
        data = _make_data(seed=31)
        db = Database.in_memory(buffer_pages=None)
        plain = db.create_table("plain", dict(data))
        specs = KdPartitioner(
            2, buffer_pages=None, index_cache_bytes=TINY_CACHE
        ).plan("pgproc", dict(data), DIMS)
        assert all(spec.clustering.node_pages for spec in specs)
        executor = ScatterGatherExecutor(specs=specs, transport="process")
        try:
            rng = np.random.default_rng(5)
            for _ in range(3):
                center = rng.uniform([-1, -1, -1], [4, 3, 2])
                widths = rng.uniform(0.5, 4.0, size=3)
                poly = Polyhedron.from_box(
                    Box(center - widths / 2, center + widths / 2)
                )
                sharded = executor.execute(poly)
                scan_rows, _ = polyhedron_full_scan(plain, DIMS, poly)
                assert _oids(sharded.rows) == _oids(scan_rows)
        finally:
            executor.close()


class TestIngestChurn:
    def test_paged_tracks_full_scan_through_inserts_and_merge(self):
        data = _make_data(seed=37)
        db = Database.in_memory(buffer_pages=None, index_cache_bytes=TINY_CACHE)
        KdTreeIndex.build(db, "t", dict(data), DIMS, num_levels=NUM_LEVELS)

        rng = np.random.default_rng(41)
        polys = []
        for _ in range(4):
            center = rng.uniform([-1, -1, -1], [4, 3, 2])
            widths = rng.uniform(0.5, 4.0, size=3)
            polys.append(
                Polyhedron.from_box(Box(center - widths / 2, center + widths / 2))
            )

        def check():
            index = db.index("t.kdtree")
            assert isinstance(index.tree, PagedKdTree)
            for poly in polys:
                rows, _ = index.query_polyhedron(poly)
                assert rows_equal(rows, _scan(index, poly))

        db.ingest.insert(
            "t",
            {
                "x": rng.normal(1.5, 1.0, 600),
                "y": rng.normal(1.0, 1.0, 600),
                "z": rng.normal(0.5, 1.0, 600),
                "oid": np.arange(NUM_ROWS, NUM_ROWS + 600, dtype=np.int64),
            },
        )
        db.table("t").delete_rows(np.arange(0, NUM_ROWS, 7))
        check()  # merge-on-read over the delta tier and tombstones

        assert merge_table(db, "t").merged
        check()


class TestCacheHygiene:
    def test_generation_swap_never_serves_stale_node_pages(self):
        data = _make_data(seed=43)
        db = Database.in_memory(buffer_pages=None, index_cache_bytes=TINY_CACHE)
        index = KdTreeIndex.build(db, "t", dict(data), DIMS, num_levels=NUM_LEVELS)
        old_tree = index.tree
        old_namespace = old_tree.namespace
        poly = Polyhedron.from_box(Box([-1, -1, -1], [4, 3, 2]))
        index.query_polyhedron(poly)  # warm node pages into the pool
        assert old_namespace in db.buffer_pool.cached_namespaces()

        rng = np.random.default_rng(47)
        db.ingest.insert(
            "t",
            {
                "x": rng.normal(size=300),
                "y": rng.normal(size=300),
                "z": rng.normal(size=300),
                "oid": np.arange(NUM_ROWS, NUM_ROWS + 300, dtype=np.int64),
            },
        )
        assert merge_table(db, "t").merged

        # The swapped-in tree serves its own generation's namespace; the
        # old pages may linger (in-flight readers get one merge cycle of
        # grace) but the new read path never touches them.
        new_tree = db.index("t.kdtree").tree
        assert new_tree.namespace != old_namespace
        rows, _ = db.index("t.kdtree").query_polyhedron(poly)
        scan_rows, _ = polyhedron_full_scan(
            db.index("t.kdtree").table, DIMS, poly
        )
        assert rows_equal(rows, scan_rows)

        # One more merge retires generation 0 for good: its node pages
        # must leave both buffer-pool levels and storage together with
        # its data pages -- nothing left to serve stale.
        db.ingest.insert(
            "t",
            {
                "x": rng.normal(size=300),
                "y": rng.normal(size=300),
                "z": rng.normal(size=300),
                "oid": np.arange(
                    NUM_ROWS + 300, NUM_ROWS + 600, dtype=np.int64
                ),
            },
        )
        assert merge_table(db, "t").merged
        assert old_namespace not in db.buffer_pool.cached_namespaces()
        assert db.storage.num_pages(old_namespace) == 0
        rows, _ = db.index("t.kdtree").query_polyhedron(poly)
        scan_rows, _ = polyhedron_full_scan(
            db.index("t.kdtree").table, DIMS, poly
        )
        assert rows_equal(rows, scan_rows)

    def test_cold_cache_covers_the_node_cache(self):
        data = _make_data(seed=53)
        db = Database.in_memory(buffer_pages=None, index_cache_bytes=TINY_CACHE)
        index = KdTreeIndex.build(db, "t", dict(data), DIMS, num_levels=NUM_LEVELS)
        poly = Polyhedron.from_box(Box([-1, -1, -1], [4, 3, 2]))
        truth, _ = index.query_polyhedron(poly)
        assert index.tree.resident_bytes > 0

        db.cold_cache()
        assert index.tree.resident_bytes == 0
        assert not db.buffer_pool.cached_namespaces()
        db.reset_io_stats()
        rows, _ = index.query_polyhedron(poly)
        assert rows_equal(rows, truth)
        # Truly cold: the node pages were decoded again from storage.
        assert db.io_stats.index_pages_decoded > 0

    def test_drop_index_tears_down_the_namespace(self):
        data = _make_data(seed=59)
        db = Database.in_memory(buffer_pages=None, index_cache_bytes=TINY_CACHE)
        index = KdTreeIndex.build(db, "t", dict(data), DIMS, num_levels=NUM_LEVELS)
        namespace = index.tree.namespace
        poly = Polyhedron.from_box(Box([-1, -1, -1], [4, 3, 2]))
        index.query_polyhedron(poly)
        assert db.storage.num_pages(namespace) > 0

        db.drop_index("t.kdtree")
        assert db.storage.num_pages(namespace) == 0
        assert namespace not in db.buffer_pool.cached_namespaces()
        assert index.tree.resident_bytes == 0


class TestPersistenceRoundTrip:
    def test_paged_index_reattaches_without_rebuild(self, tmp_path):
        data = _make_data(seed=61)
        db = Database.on_disk(tmp_path, buffer_pages=None)
        index = KdTreeIndex.build(db, "t", dict(data), DIMS, num_levels=NUM_LEVELS)
        assert isinstance(index.tree, PagedKdTree)
        poly = Polyhedron.from_box(Box([-1, -1, -1], [4, 3, 2]))
        truth, _ = index.query_polyhedron(poly)
        save_catalog(db)

        reopened = attach_database(tmp_path)
        reattached = reopened.index("t.kdtree")
        assert isinstance(reattached.tree, PagedKdTree)
        assert reattached.tree.layout == index.tree.layout
        rows, _ = reattached.query_polyhedron(poly)
        assert _oids(rows) == _oids(truth)
