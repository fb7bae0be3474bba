"""Differential correctness: four executors, one answer.

Property-based (hypothesis) random boxes and polyhedra asserting that
the kd-tree index, the layered grid, the sharded scatter-gather engine,
and the index-free full scan return *identical row sets* over the same
data.  Each engine clusters rows differently, so identity is compared on
a stable ``oid`` column carried through every table.

This is the clean-room half of the robustness story; the fault sweeps
(test_faults.py) re-assert the same identities with storage failing.
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
    knn_boundary_points,
    knn_brute_force,
)
from repro.db.fetch import FetchMember
from repro.db.scan import batch_full_scan
from repro.net.pool import ShardWorkerPool
from repro.core.layered_grid import LayeredGridIndex
from repro.core.queries import polyhedron_full_scan
from repro.geometry.halfspace import Halfspace
from repro.service import rows_equal

pytestmark = pytest.mark.faultsweep

DIMS = ["x", "y", "z"]
NUM_ROWS = 3000

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def differential_data():
    """The shared bimodal dataset every engine in this module indexes."""
    rng = np.random.default_rng(13)
    points = np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0], [0.5, 0.3, 0.7], size=(NUM_ROWS // 2, 3)),
            rng.normal([3.0, 2.0, 1.0], [0.9, 0.6, 0.4], size=(NUM_ROWS // 2, 3)),
        ]
    )
    data = {d: points[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(NUM_ROWS, dtype=np.int64)
    return data


@pytest.fixture(scope="module")
def differential_setup(differential_data):
    """One dataset, three access paths: kd table, grid table, plain table."""
    data = differential_data
    db = Database.in_memory(buffer_pages=None)
    kd = KdTreeIndex.build(db, "diff_kd", dict(data), DIMS)
    grid = LayeredGridIndex.build(db, "diff_grid", dict(data), DIMS, base=128)
    plain = db.create_table("diff_plain", dict(data))
    return db, kd, grid, plain


@pytest.fixture(scope="module")
def sharded_executor(differential_data):
    """A 4-way scatter-gather engine over the same dataset."""
    shard_set = KdPartitioner(4, buffer_pages=None).partition(
        "diff_sharded", dict(differential_data), DIMS
    )
    executor = ScatterGatherExecutor(shard_set)
    yield executor
    executor.close()


def _oids(rows: dict) -> frozenset[int]:
    return frozenset(int(v) for v in rows["oid"])


def _box_from_draws(centers, widths) -> Box:
    lo = np.asarray(centers) - np.asarray(widths) / 2.0
    hi = np.asarray(centers) + np.asarray(widths) / 2.0
    return Box(lo, hi)


# The data lives roughly in [-2, 6]^3; boxes are drawn to cover empty,
# partial, and near-total selectivities.
_center = st.floats(min_value=-2.0, max_value=5.0, allow_nan=False)
_width = st.floats(min_value=0.05, max_value=6.0, allow_nan=False)
_box_strategy = st.tuples(
    st.tuples(_center, _center, _center), st.tuples(_width, _width, _width)
)


class TestBoxDifferential:
    @_SETTINGS
    @given(draw=_box_strategy)
    def test_sharded_matches_scan_on_random_boxes(
        self, differential_setup, sharded_executor, draw
    ):
        # The scatter-gather engine re-clusters rows across four private
        # databases; the answer must still be the full scan's, oid for oid.
        db, kd, grid, plain = differential_setup
        polyhedron = Polyhedron.from_box(_box_from_draws(*draw))
        sharded = sharded_executor.execute(polyhedron)
        scan_rows, _ = polyhedron_full_scan(plain, DIMS, polyhedron)
        assert _oids(sharded.rows) == _oids(scan_rows)
        assert not sharded.partial
        assert sharded.shards_dispatched + sharded.shards_pruned == 4

    @_SETTINGS
    @given(draw=_box_strategy)
    def test_kdtree_grid_and_scan_agree_on_random_boxes(self, differential_setup, draw):
        db, kd, grid, plain = differential_setup
        box = _box_from_draws(*draw)
        polyhedron = Polyhedron.from_box(box)

        kd_rows, _ = kd.query_polyhedron(polyhedron)
        scan_rows, _ = polyhedron_full_scan(plain, DIMS, polyhedron)
        grid_result = grid.query_box(box)
        grid_oids = frozenset(
            int(v) for v in grid.table.gather(grid_result.row_ids)["oid"]
        )

        assert _oids(kd_rows) == _oids(scan_rows)
        assert grid_oids == _oids(scan_rows)

    @_SETTINGS
    @given(draw=_box_strategy)
    def test_kdtree_matches_scan_row_for_row_on_its_own_table(
        self, differential_setup, draw
    ):
        # Same table on both sides: compare full row contents, not just ids.
        db, kd, grid, plain = differential_setup
        polyhedron = Polyhedron.from_box(_box_from_draws(*draw))
        kd_rows, _ = kd.query_polyhedron(polyhedron)
        scan_rows, _ = polyhedron_full_scan(kd.table, DIMS, polyhedron)
        assert rows_equal(kd_rows, scan_rows)


# Random convex polyhedra: a few halfspaces with arbitrary orientations,
# offsets placed so the cutting planes pass through the data cloud.
_direction = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
).filter(lambda v: abs(v[0]) + abs(v[1]) + abs(v[2]) > 1e-3)
_anchor = st.tuples(
    st.floats(min_value=-1.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
)
_polyhedron_strategy = st.lists(
    st.tuples(_direction, _anchor), min_size=2, max_size=6
)


class TestPolyhedronDifferential:
    @_SETTINGS
    @given(facets=_polyhedron_strategy)
    def test_kdtree_matches_scan_on_random_polyhedra(self, differential_setup, facets):
        db, kd, grid, plain = differential_setup
        halfspaces = []
        for direction, anchor in facets:
            normal = np.asarray(direction, dtype=np.float64)
            normal /= np.linalg.norm(normal)
            # The plane passes through the anchor point: offset = n . a.
            halfspaces.append(Halfspace(normal, float(normal @ np.asarray(anchor))))
        polyhedron = Polyhedron(halfspaces)

        kd_rows, _ = kd.query_polyhedron(polyhedron)
        scan_rows, _ = polyhedron_full_scan(plain, DIMS, polyhedron)
        assert _oids(kd_rows) == _oids(scan_rows)

    def test_sharded_matches_scan_on_random_polyhedra(
        self, differential_setup, sharded_executor
    ):
        db, kd, grid, plain = differential_setup
        rng = np.random.default_rng(19)
        for _ in range(15):
            normals = rng.normal(size=(int(rng.integers(2, 6)), 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            anchors = rng.uniform([-1, -1, -1], [4, 3, 2], size=(len(normals), 3))
            polyhedron = Polyhedron(
                [
                    Halfspace(n, float(n @ a))
                    for n, a in zip(normals, anchors)
                ]
            )
            sharded = sharded_executor.execute(polyhedron)
            scan_rows, _ = polyhedron_full_scan(plain, DIMS, polyhedron)
            assert _oids(sharded.rows) == _oids(scan_rows)
            assert not sharded.partial

    def test_partition_and_tight_boxes_agree(self, differential_setup):
        # The two box families prune differently but must answer identically.
        db, kd, grid, plain = differential_setup
        rng = np.random.default_rng(5)
        for _ in range(10):
            center = rng.uniform([-1, -1, -1], [4, 3, 2])
            widths = rng.uniform(0.2, 4.0, size=3)
            polyhedron = Polyhedron.from_box(
                Box(center - widths / 2, center + widths / 2)
            )
            tight_rows, _ = kd.query_polyhedron(polyhedron, use_tight_boxes=True)
            part_rows, _ = kd.query_polyhedron(polyhedron, use_tight_boxes=False)
            assert rows_equal(tight_rows, part_rows)


_point = st.tuples(
    st.floats(min_value=-2.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
)


class TestShardedKnnDifferential:
    @_SETTINGS
    @given(point=_point, k=st.integers(min_value=1, max_value=40))
    def test_sharded_knn_matches_brute_force(
        self, differential_data, sharded_executor, point, k
    ):
        # Frontier-merged k-NN across shard borders must equal the global
        # brute-force top-k -- the §3.3 soundness argument, one level up.
        data = differential_data
        pts = np.column_stack([data[d] for d in DIMS])
        query = np.asarray(point, dtype=np.float64)
        result = sharded_executor.knn(query, k)
        dist = np.sqrt(((pts - query) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:k]
        got = frozenset(
            int(v)
            for v in sharded_executor.shard_set.gather(result.row_ids)["oid"]
        )
        assert got == frozenset(int(v) for v in data["oid"][order])
        assert np.allclose(result.distances, dist[order])


# -- ingest interleavings --------------------------------------------------
#
# Random insert/delete/merge sequences; after every sequence the
# merge-on-read view (main pages + delta tier) must be indistinguishable
# from a table rebuilt from scratch over the surviving rows, on every
# read path.  The linearized python-side dict of live points is the
# oracle both sides are compared against.

_INGEST_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 2**16), st.integers(1, 40)),
        st.tuples(st.just("delete"), st.integers(0, 2**16), st.integers(1, 25)),
        st.tuples(st.just("merge"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=7,
)


def _seed_points(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 3))


def _apply_ops(db, name: str, ops, expected: dict[int, np.ndarray], next_oid: int):
    """Run an op sequence through the write path, mirroring it in python."""
    for kind, seed, count in ops:
        table = db.table(name)  # re-resolve: merges swap the table object
        rng = np.random.default_rng(seed)
        if kind == "insert":
            pts = rng.uniform(0.0, 10.0, size=(count, 3))
            batch = {d: pts[:, i] for i, d in enumerate(DIMS)}
            batch["oid"] = np.arange(next_oid, next_oid + count, dtype=np.int64)
            table.insert_rows(batch)
            for j in range(count):
                expected[next_oid + j] = pts[j]
            next_oid += count
        elif kind == "delete":
            from repro.db import full_scan

            live, _ = full_scan(table, columns=["oid"])
            count = min(count, len(live["oid"]) - 1)  # never empty the table
            if count <= 0:
                continue
            victims = rng.choice(len(live["oid"]), size=count, replace=False)
            table.delete_rows(live["_row_id"][victims])
            for oid in live["oid"][victims]:
                del expected[int(oid)]
        else:
            db.ingest.merge(name)  # no-op when clean, by design
    return next_oid


def _rebuild(expected: dict[int, np.ndarray]):
    """A from-scratch database over exactly the surviving rows."""
    oids = np.fromiter(expected.keys(), dtype=np.int64, count=len(expected))
    pts = np.array([expected[int(o)] for o in oids])
    data = {d: pts[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = oids
    db = Database.in_memory(buffer_pages=None)
    index = KdTreeIndex.build(db, "rebuilt", data, DIMS)
    return db, index


class TestIngestDifferential:
    @_INGEST_SETTINGS
    @given(ops=_op_strategy)
    def test_merge_on_read_equals_rebuild_on_solo_paths(self, ops):
        pts = _seed_points(300, seed=101)
        data = {d: pts[:, i] for i, d in enumerate(DIMS)}
        data["oid"] = np.arange(300, dtype=np.int64)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "ing", data, DIMS)
        expected = {int(o): pts[o] for o in range(300)}
        _apply_ops(db, "ing", ops, expected, next_oid=300)

        _, rebuilt = _rebuild(expected)
        table = db.table("ing")
        index = db.index("ing.kdtree")
        boxes = [
            Box(np.full(3, 2.0), np.full(3, 8.0)),
            Box(np.array([0.0, 4.0, 1.0]), np.array([5.0, 9.0, 6.0])),
            Box(np.full(3, -1.0), np.full(3, 11.0)),  # everything
        ]
        for box in boxes:
            poly = Polyhedron.from_box(box)
            want = _oids(rebuilt.query_polyhedron(poly)[0])

            kd_rows, _ = index.query_polyhedron(poly)
            assert _oids(kd_rows) == want

            scan_rows, _ = polyhedron_full_scan(table, DIMS, poly)
            assert _oids(scan_rows) == want

        # The shared-scan path sees the same tombstones and delta rows.
        def _pred(poly):
            return lambda cols: poly.contains_points(
                np.column_stack([cols[d] for d in DIMS])
            )

        members = [FetchMember(predicate=_pred(Polyhedron.from_box(b))) for b in boxes]
        results, _ = batch_full_scan(table, members)
        for (rows, _, error), box in zip(results, boxes):
            assert error is None
            want = _oids(rebuilt.query_polyhedron(Polyhedron.from_box(box))[0])
            assert _oids(rows) == want

    @_INGEST_SETTINGS
    @given(ops=_op_strategy, point=_point, k=st.integers(min_value=1, max_value=20))
    def test_merge_on_read_equals_rebuild_on_knn(self, ops, point, k):
        pts = _seed_points(200, seed=103)
        data = {d: pts[:, i] for i, d in enumerate(DIMS)}
        data["oid"] = np.arange(200, dtype=np.int64)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "ingk", data, DIMS)
        expected = {int(o): pts[o] for o in range(200)}
        _apply_ops(db, "ingk", ops, expected, next_oid=200)

        index = db.index("ingk.kdtree")
        probe = np.asarray(point, dtype=np.float64) + 5.0  # data is [0, 10]^3
        exact = knn_boundary_points(index, probe, k)
        live = np.array(list(expected.values()))
        dist = np.sort(np.sqrt(((live - probe) ** 2).sum(axis=1)))[:k]
        assert np.allclose(np.sort(exact.distances), dist)
        brute = knn_brute_force(db.table("ingk"), DIMS, probe, k)
        assert np.allclose(np.sort(brute.distances), dist)


class TestShardedIngestDifferential:
    """Fixed-seed interleavings over both scatter-gather transports."""

    NUM_ROWS = 1500

    def _base_data(self, seed: int = 71):
        pts = _seed_points(self.NUM_ROWS, seed=seed)
        data = {d: pts[:, i] for i, d in enumerate(DIMS)}
        data["oid"] = np.arange(self.NUM_ROWS, dtype=np.int64)
        return data, {int(o): pts[o] for o in range(self.NUM_ROWS)}

    def _run_interleaving(self, executor, expected, rng, rounds=4):
        """Shared driver: churn, query, merge, re-cut, on either transport."""
        whole = Polyhedron.from_box(Box(np.full(3, -1.0), np.full(3, 11.0)))
        next_oid = self.NUM_ROWS
        for round_no in range(rounds):
            pts = rng.uniform(0.0, 10.0, size=(60, 3))
            batch = {d: pts[:, i] for i, d in enumerate(DIMS)}
            batch["oid"] = np.arange(next_oid, next_oid + 60, dtype=np.int64)
            executor.insert_rows(batch)
            for j in range(60):
                expected[next_oid + j] = pts[j]
            next_oid += 60

            # Deletes address rows by their *current* global ids.
            live = executor.execute(whole).rows
            oid_to_rid = {
                int(o): int(r) for o, r in zip(live["oid"], live["_row_id"])
            }
            assert set(oid_to_rid) == set(expected)
            victims = rng.choice(
                np.fromiter(expected.keys(), dtype=np.int64), 40, replace=False
            )
            executor.delete_rows(
                np.array([oid_to_rid[int(o)] for o in victims])
            )
            for oid in victims:
                del expected[int(oid)]

            live_pts = np.array(list(expected.values()))
            live_oids = np.fromiter(expected.keys(), dtype=np.int64)
            for _ in range(3):
                center = rng.uniform(1.0, 9.0, size=3)
                width = rng.uniform(1.0, 8.0)
                box = Box(center - width / 2, center + width / 2)
                result = executor.execute(Polyhedron.from_box(box))
                want = frozenset(
                    int(o) for o in live_oids[box.contains_points(live_pts)]
                )
                assert _oids(result.rows) == want
                assert not result.partial

            if round_no == 1:
                executor.merge(threshold=0.0)
            elif round_no == 2:
                executor.maybe_repartition(threshold=0.01)
        return next_oid

    def test_thread_transport_interleaving_matches_oracle(self):
        data, expected = self._base_data()
        shard_set = KdPartitioner(4, buffer_pages=None).partition(
            "ing_threads", dict(data), DIMS
        )
        executor = ScatterGatherExecutor(shard_set)
        rng = np.random.default_rng(72)
        try:
            self._run_interleaving(executor, expected, rng)
            # The frontier-merged k-NN sees the same merged view.
            live = np.array(list(expected.values()))
            for _ in range(5):
                probe = rng.uniform(0.0, 10.0, size=3)
                result = executor.knn(probe, 10)
                dist = np.sort(np.sqrt(((live - probe) ** 2).sum(axis=1)))[:10]
                assert np.allclose(np.sort(result.distances), dist)
        finally:
            executor.close()

    def test_process_transport_interleaving_matches_oracle(self):
        data, expected = self._base_data(seed=73)
        specs = KdPartitioner(4).plan("ing_procs", dict(data), DIMS)
        rng = np.random.default_rng(74)
        with ShardWorkerPool(specs, sample_pages=8) as pool:
            self._run_interleaving(pool, expected, rng)
            # Writes and re-cuts leave the pool fully healthy.
            counters = pool.counters()
            assert counters["rows_inserted"] == 4 * 60
            assert counters["rows_deleted"] == 4 * 40
            assert counters["merges"] > 0

    def test_transports_agree_with_each_other(self):
        # Same interleaving on both engines: identical layout-independent
        # answers, including after each has merged and re-cut privately.
        data, expected_a = self._base_data(seed=75)
        expected_b = dict(expected_a)
        shard_set = KdPartitioner(4, buffer_pages=None).partition(
            "agree_threads", dict(data), DIMS
        )
        executor = ScatterGatherExecutor(shard_set)
        specs = KdPartitioner(4).plan("agree_procs", dict(data), DIMS)
        try:
            with ShardWorkerPool(specs, sample_pages=8) as pool:
                self._run_interleaving(
                    executor, expected_a, np.random.default_rng(76)
                )
                self._run_interleaving(
                    pool, expected_b, np.random.default_rng(76)
                )
                assert expected_a.keys() == expected_b.keys()
                box = Box(np.full(3, 1.5), np.full(3, 8.5))
                poly = Polyhedron.from_box(box)
                assert _oids(executor.execute(poly).rows) == _oids(
                    pool.execute(poly).rows
                )
        finally:
            executor.close()


class TestShardedFaultSweep:
    def test_random_queries_stay_correct_while_one_shard_flaps(self):
        # A shard with a flaky (but retryable) backend must never change
        # any answer -- retries absorb the faults below the merge.
        from repro import FaultInjector, FaultyStorage
        from repro.db.storage import MemoryStorage

        rng = np.random.default_rng(37)
        n = 2000
        pts = rng.normal(1.5, 1.2, size=(n, 3))
        data = {d: pts[:, i] for i, d in enumerate(DIMS)}
        data["oid"] = np.arange(n, dtype=np.int64)
        injector = FaultInjector(seed=3)
        shard_set = KdPartitioner(
            4,
            database_factory=lambda j: (
                Database(FaultyStorage(MemoryStorage(), injector), buffer_pages=None)
                if j == 2
                else Database.in_memory(buffer_pages=None)
            ),
        ).partition("flaky", data, DIMS)
        executor = ScatterGatherExecutor(shard_set)
        ref_db = Database.in_memory(buffer_pages=None)
        plain = ref_db.create_table("flaky_plain", dict(data))

        shard_set[2].database.cold_cache()
        injector.configure(read_fault_rate=0.3)
        try:
            for _ in range(15):
                center = rng.uniform(-0.5, 3.5, size=3)
                width = rng.uniform(0.3, 4.0)
                polyhedron = Polyhedron.from_box(Box(center - width, center + width))
                sharded = executor.execute(polyhedron)
                scan_rows, _ = polyhedron_full_scan(plain, DIMS, polyhedron)
                assert _oids(sharded.rows) == _oids(scan_rows)
                assert not sharded.partial
            assert injector.reads_failed > 0  # the sweep actually hurt
        finally:
            injector.quiesce()
            executor.close()
