"""Unit tests for the write path: delta tier, ingest WAL, merge policy.

The differential interleavings live in test_differential.py and the
crash-point matrix in test_persistence_recovery.py; this module pins the
component contracts those harnesses build on -- delta-band row ids,
snapshot immutability, WAL-first ordering, out-of-place merge mechanics,
generation retirement, and the mutation-listener seam every cache above
the catalog depends on.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    DELTA_BASE,
    DeltaTier,
    IngestWal,
    KdTreeIndex,
    LayeredGridIndex,
    MergeDaemon,
    Polyhedron,
    RetryPolicy,
    RTreeIndex,
    VoronoiIndex,
    full_scan,
    knn_boundary_points,
    knn_brute_force,
    merge_table,
)
from repro.core.queries import polyhedron_full_scan
from repro.db.errors import StaleIndexError
from repro.ingest.delta import SHARD_STRIDE, is_delta_id
from repro.ingest.wal import RecordKind

DIMS = ["x", "y", "z"]


def _oids(rows: dict) -> frozenset[int]:
    return frozenset(int(v) for v in rows["oid"])


def _build_kd_db(n: int = 600, seed: int = 0):
    """A kd-indexed 3-d table with a stable ``oid`` identity column."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 10.0, size=(n, 3))
    data = {d: pts[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(n, dtype=np.int64)
    db = Database.in_memory(buffer_pages=None)
    index = KdTreeIndex.build(db, "t", data, DIMS)
    return db, index, pts


def _batch(rng, count: int, oid_start: int) -> dict[str, np.ndarray]:
    pts = rng.uniform(0.0, 10.0, size=(count, 3))
    batch = {d: pts[:, i] for i, d in enumerate(DIMS)}
    batch["oid"] = np.arange(oid_start, oid_start + count, dtype=np.int64)
    return batch


class TestDeltaTier:
    @pytest.fixture()
    def tier(self):
        return DeltaTier(
            {"x": np.dtype(np.float64), "oid": np.dtype(np.int64)}, dims=("x",)
        )

    def test_insert_assigns_delta_band_ids(self, tier):
        ids = tier.insert({"x": np.arange(3.0), "oid": np.arange(3)})
        assert ids.dtype == np.int64
        assert list(ids) == [DELTA_BASE, DELTA_BASE + 1, DELTA_BASE + 2]
        more = tier.insert({"x": np.arange(2.0), "oid": np.arange(2)})
        assert list(more) == [DELTA_BASE + 3, DELTA_BASE + 4]
        assert is_delta_id(ids).all()
        assert not is_delta_id(np.arange(10)).any()
        assert SHARD_STRIDE < DELTA_BASE

    def test_insert_validates_columns(self, tier):
        with pytest.raises(KeyError, match="missing"):
            tier.insert({"x": np.arange(2.0)})
        with pytest.raises(KeyError, match="unknown"):
            tier.insert({"x": np.arange(2.0), "oid": np.arange(2), "bogus": [1, 2]})
        with pytest.raises(ValueError, match="length"):
            tier.insert({"x": np.arange(2.0), "oid": np.arange(3)})

    def test_delete_counts_and_idempotency(self, tier):
        ids = tier.insert({"x": np.arange(4.0), "oid": np.arange(4)})
        main, delta = tier.delete(np.array([7, ids[1]]))
        assert (main, delta) == (1, 1)
        # Deleting the same rows again is a no-op, not an error.
        main, delta = tier.delete(np.array([7, ids[1]]))
        assert (main, delta) == (0, 0)
        assert tier.num_live == 3
        assert tier.num_tombstones == 1

    def test_delete_unknown_delta_id_raises(self, tier):
        with pytest.raises(IndexError, match="delta row id"):
            tier.delete(np.array([DELTA_BASE + 99]))

    def test_frozen_tier_refuses_writes(self, tier):
        tier.insert({"x": np.arange(2.0), "oid": np.arange(2)})
        tier.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            tier.insert({"x": np.arange(1.0), "oid": np.arange(1)})
        with pytest.raises(RuntimeError, match="frozen"):
            tier.delete(np.array([0]))
        # Frozen tiers still serve reads: in-flight queries keep their view.
        assert tier.snapshot().num_rows == 2

    def test_snapshot_cached_until_next_write(self, tier):
        tier.insert({"x": np.arange(2.0), "oid": np.arange(2)})
        first = tier.snapshot()
        assert tier.snapshot() is first
        tier.delete(np.array([3]))
        second = tier.snapshot()
        assert second is not first
        assert second.epoch > first.epoch
        # The old snapshot is immutable: the delete is invisible to it.
        assert first.num_tombstones == 0

    def test_snapshot_excludes_deleted_delta_rows(self, tier):
        ids = tier.insert({"x": np.arange(5.0), "oid": np.arange(5)})
        tier.delete(np.array([ids[0], ids[3], 42, 17]))
        snapshot = tier.snapshot()
        assert list(snapshot.row_ids) == [ids[1], ids[2], ids[4]]
        assert list(snapshot.columns["x"]) == [1.0, 2.0, 4.0]
        # Main tombstones come back sorted for searchsorted suppression.
        assert list(snapshot.tombstones) == [17, 42]
        alive = snapshot.alive(np.array([16, 17, 18, 42]))
        assert list(alive) == [True, False, True, False]

    def test_churn_counts_inserts_and_main_tombstones(self, tier):
        assert tier.churn == 0
        ids = tier.insert({"x": np.arange(3.0), "oid": np.arange(3)})
        tier.delete(np.array([5, ids[0]]))
        # Churn is merge *work*: every insert (even a dead one) plus every
        # main tombstone must be drained; delta tombstones ride along free.
        assert tier.churn == 4


class TestDeltaMatch:
    """``match_mask`` is one ``contains_points`` behind a box reject."""

    @staticmethod
    def _snapshot(pts: np.ndarray, dims=tuple(DIMS)):
        tier = DeltaTier({d: np.dtype(np.float64) for d in DIMS}, dims=dims)
        if len(pts):
            tier.insert({d: pts[:, i] for i, d in enumerate(DIMS)})
        return tier.snapshot()

    def test_match_mask_equals_contains_points(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 255, 256, 5000):
            pts = rng.uniform(-5.0, 5.0, size=(n, 3))
            snapshot = self._snapshot(pts)
            for _ in range(6):
                center = rng.uniform(-4.0, 4.0, size=3)
                width = rng.uniform(0.5, 6.0)
                box = Polyhedron.from_box(Box(center - width / 2, center + width / 2))
                oblique = Polyhedron.simplex_around(center, width)
                for poly in (box, oblique):
                    mask = snapshot.match_mask(poly)
                    assert mask.dtype == bool and mask.shape == (n,)
                    assert np.array_equal(mask, poly.contains_points(pts))
                    columns, row_ids = snapshot.match(poly)
                    assert np.array_equal(row_ids, snapshot.row_ids[mask])
                    assert np.array_equal(columns["x"], pts[mask, 0])

    def test_query_disjoint_from_delta_box(self):
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(300, 3))
        snapshot = self._snapshot(pts)
        far = Polyhedron.from_box(Box(np.full(3, 2.0), np.full(3, 3.0)))
        assert not snapshot.match_mask(far).any()
        columns, row_ids = snapshot.match(far)
        assert len(row_ids) == 0 and all(len(c) == 0 for c in columns.values())
        # Disjoint on one axis only: still rejected by the box, and the
        # rows themselves agree.
        slab = Polyhedron.from_box(
            Box(np.array([0.0, 0.0, 1.5]), np.array([1.0, 1.0, 2.0]))
        )
        assert np.array_equal(snapshot.match_mask(slab), slab.contains_points(pts))

    def test_non_default_dims(self):
        pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(400, 3))
        poly = Polyhedron.from_box(Box(np.full(2, 0.2), np.full(2, 0.7)))
        # A tier with no dims of its own (no kd index) and one whose dims
        # differ from the query's both take the caller's dims.
        for tier_dims in ((), tuple(DIMS)):
            snapshot = self._snapshot(pts, dims=tier_dims)
            mask = snapshot.match_mask(poly, dims=("z", "x"))
            assert np.array_equal(mask, poly.contains_points(pts[:, [2, 0]]))
            assert snapshot.bounding_box(("z", "x")).contains_points(
                pts[:, [2, 0]]
            ).all()


class TestIngestWal:
    def test_insert_and_delete_records_roundtrip(self):
        wal = IngestWal()
        columns = {"x": np.arange(3.0), "oid": np.arange(3, dtype=np.int64)}
        seq1 = wal.append_insert("t", columns)
        seq2 = wal.append_delete("t", np.array([4, 9], dtype=np.int64))
        assert seq2 == seq1 + 1
        records = wal.records()
        assert [r.kind for r in records] == [RecordKind.INSERT, RecordKind.DELETE]
        assert all(r.verify() for r in records)
        decoded = records[0].decode_page().columns
        assert np.array_equal(decoded["x"], columns["x"])
        assert np.array_equal(decoded["oid"], columns["oid"])
        assert list(np.frombuffer(records[1].payload, dtype=np.int64)) == [4, 9]

    def test_frame_bytes_are_pinned(self):
        # ``ingest_mix`` counts these bytes in write_amp and space_amp, so
        # any codec edit that moves them must show up here first.
        wal = IngestWal()
        wal.append_insert(
            "t", {"x": np.arange(3.0), "oid": np.arange(3, dtype=np.int64)}
        )
        wal.append_delete("t", np.array([4, 9], dtype=np.int64))
        wal.append_merge_begin("t", 1)
        wal.append_merge_commit("t", 1)
        frames = wal.frames()
        assert [len(f) for f in frames] == [163, 45, 37, 37]
        assert frames[1].hex() == (
            "524957310200000000000000020000000100000010000000f91cc527"
            "7404000000000000000900000000000000"
        )
        assert hashlib.sha256(b"".join(frames)).hexdigest() == (
            "3be99bcfe9132fad022a161ded9d53d921b2c212b038bb4a83bb8b4513265f8b"
        )

    def test_frames_carry_sequence_across_reopen(self):
        wal = IngestWal()
        wal.append_insert("t", {"x": np.arange(2.0)})
        wal.append_merge_begin("t", 1)
        reopened = IngestWal(wal.frames())
        seq = reopened.append_merge_commit("t", 1)
        assert seq == 3  # continues, never reuses, the crashed log's numbering

    def test_log_bytes_is_the_sum_of_frame_lengths(self):
        def framed(log):
            return sum(len(raw) for raw in log.frames())

        wal = IngestWal()
        wal.append_insert("t", {"x": np.arange(4.0)})
        wal.append_delete("t", np.array([1], dtype=np.int64))
        wal.append_insert("other", {"x": np.arange(2.0)})
        commit = wal.append_merge_commit("t", 1)
        assert wal.log_bytes() == framed(wal)
        assert wal.truncate_table("t", commit) == 2
        assert wal.log_bytes() == framed(wal)
        reopened = IngestWal(wal.frames())
        assert reopened.log_bytes() == framed(reopened) == wal.log_bytes()

    def test_truncate_keeps_fences(self):
        wal = IngestWal()
        wal.append_insert("t", {"x": np.arange(2.0)})
        wal.append_delete("t", np.array([1], dtype=np.int64))
        wal.append_insert("other", {"x": np.arange(1.0)})
        wal.append_merge_begin("t", 1)
        commit = wal.append_merge_commit("t", 1)
        dropped = wal.truncate_table("t", commit)
        assert dropped == 2
        kinds = [(r.name, r.kind) for r in wal.records()]
        assert ("other", RecordKind.INSERT) in kinds
        assert ("t", RecordKind.MERGE_BEGIN) in kinds
        assert ("t", RecordKind.MERGE_COMMIT) in kinds
        assert ("t", RecordKind.INSERT) not in kinds

    def test_replay_applies_unmerged_records(self):
        db, index, _ = _build_kd_db(n=200, seed=1)
        rng = np.random.default_rng(2)
        batch = _batch(rng, 5, oid_start=200)
        ids = db.table("t").insert_rows(batch)
        db.table("t").delete_rows(np.array([3, ids[0]]))

        # "Crash": only the WAL frames survive; the replica rebuilt the
        # base table from its (pre-crash) pages.
        replica, _, _ = _build_kd_db(n=200, seed=1)
        applied = IngestWal(db.ingest_wal.frames()).replay(replica)
        assert applied == 2
        rows, _ = full_scan(replica.table("t"), columns=["oid"])
        expected, _ = full_scan(db.table("t"), columns=["oid"])
        assert _oids(rows) == _oids(expected)

    def test_replay_skips_records_merged_before_the_crash(self):
        db, index, _ = _build_kd_db(n=200, seed=3)
        rng = np.random.default_rng(4)
        db.table("t").insert_rows(_batch(rng, 4, oid_start=200))
        merge_table(db, "t")
        db.table("t").insert_rows(_batch(rng, 2, oid_start=204))

        replica, _, _ = _build_kd_db(n=200, seed=3)
        # The replica stands in for the merged generation's pages, so only
        # the post-commit insert record may be redone.
        applied = IngestWal(db.ingest_wal.frames()).replay(replica)
        assert applied == 1
        assert replica.table("t").num_live_rows == 202

    def test_replay_ignores_unpaired_merge_begin(self):
        db, index, _ = _build_kd_db(n=100, seed=5)
        rng = np.random.default_rng(6)
        db.table("t").insert_rows(_batch(rng, 3, oid_start=100))
        # The merge crashed after its begin fence, before any swap.
        db.ingest_wal.append_merge_begin("t", 1)

        replica, _, _ = _build_kd_db(n=100, seed=5)
        applied = IngestWal(db.ingest_wal.frames()).replay(replica)
        assert applied == 1
        assert replica.table("t").num_live_rows == 103

    def test_replay_skips_unknown_tables(self, caplog):
        wal = IngestWal()
        wal.append_insert("ghost", {"x": np.arange(1.0)})
        db = Database.in_memory()
        with caplog.at_level("WARNING", logger="repro.ingest.wal"):
            assert wal.replay(db) == 0
        assert any("unknown table" in m for m in caplog.messages)

    def test_corrupt_frame_skipped_or_raised(self, caplog):
        db, index, _ = _build_kd_db(n=100, seed=7)
        rng = np.random.default_rng(8)
        db.table("t").insert_rows(_batch(rng, 2, oid_start=100))
        db.table("t").insert_rows(_batch(rng, 2, oid_start=102))
        frames = db.ingest_wal.frames()
        mangled = bytearray(frames[0])
        mangled[-1] ^= 0xFF  # payload byte flip: checksum must catch it
        frames[0] = bytes(mangled)

        replica, _, _ = _build_kd_db(n=100, seed=7)
        with caplog.at_level("WARNING", logger="repro.ingest.wal"):
            applied = IngestWal(frames).replay(replica)
        assert applied == 1
        assert any("checksum" in m for m in caplog.messages)
        with pytest.raises(ValueError, match="checksum"):
            IngestWal(frames).replay(_build_kd_db(n=100, seed=7)[0], on_corrupt="raise")

    def test_mangled_magic_skipped_or_raised(self):
        db, index, _ = _build_kd_db(n=100, seed=9)
        db.table("t").insert_rows(_batch(np.random.default_rng(1), 2, 100))
        frames = db.ingest_wal.frames()
        frames[0] = b"XXXX" + frames[0][4:]
        replica, _, _ = _build_kd_db(n=100, seed=9)
        assert IngestWal(frames).replay(replica) == 0
        with pytest.raises(ValueError, match="magic"):
            IngestWal(frames).replay(replica, on_corrupt="raise")

    def test_dangling_delete_skipped_or_raised(self, caplog):
        # A delete whose target insert was torn away: replay must not
        # invent a tombstone for a row that never came back.
        db, index, _ = _build_kd_db(n=100, seed=10)
        ids = db.table("t").insert_rows(_batch(np.random.default_rng(2), 2, 100))
        db.table("t").delete_rows(np.array([ids[1]]))
        frames = db.ingest_wal.frames()
        del frames[0]  # the insert record is gone; its delete now dangles
        replica, _, _ = _build_kd_db(n=100, seed=10)
        with caplog.at_level("WARNING", logger="repro.ingest.wal"):
            assert IngestWal(frames).replay(replica) == 0
        assert any("dangling" in m for m in caplog.messages)
        with pytest.raises(ValueError, match="unrecovered"):
            IngestWal(frames).replay(
                _build_kd_db(n=100, seed=10)[0], on_corrupt="raise"
            )

    def test_replay_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="on_corrupt"):
            IngestWal().replay(Database.in_memory(), on_corrupt="ignore")


class TestTableWritePath:
    @pytest.fixture()
    def setup(self):
        return _build_kd_db(n=600, seed=11)

    def test_wal_records_precede_delta_visibility(self, setup):
        db, index, _ = setup
        table = db.table("t")
        table.insert_rows(_batch(np.random.default_rng(3), 3, 600))
        records = db.ingest_wal.records()
        assert [r.kind for r in records] == [RecordKind.INSERT]
        assert records[0].name == "t"

    def test_insert_visible_to_scan_kd_and_knn(self, setup):
        db, index, _ = setup
        table = db.table("t")
        probe = np.array([5.0, 5.0, 5.0])
        batch = {
            "x": np.array([5.01]), "y": np.array([5.01]), "z": np.array([5.01]),
            "oid": np.array([600], dtype=np.int64),
        }
        ids = table.insert_rows(batch)
        assert ids[0] >= DELTA_BASE

        rows, _ = full_scan(table, columns=["oid"])
        assert 600 in _oids(rows)

        poly = Polyhedron.from_box(Box(probe - 0.5, probe + 0.5))
        kd_rows, _ = index.query_polyhedron(poly)
        assert 600 in _oids(kd_rows)

        result = knn_boundary_points(index, probe, 1)
        assert list(result.row_ids) == [int(ids[0])]

    def test_knn_matches_brute_force_with_live_delta(self, setup):
        db, index, _ = setup
        table = db.table("t")
        rng = np.random.default_rng(12)
        table.insert_rows(_batch(rng, 40, oid_start=600))
        table.delete_rows(np.arange(0, 30, dtype=np.int64))
        for _ in range(5):
            probe = rng.uniform(0.0, 10.0, size=3)
            exact = knn_boundary_points(index, probe, 8)
            brute = knn_brute_force(table, DIMS, probe, 8)
            assert np.allclose(np.sort(exact.distances), np.sort(brute.distances))

    def test_delete_suppresses_main_and_delta_rows(self, setup):
        db, index, _ = setup
        table = db.table("t")
        ids = table.insert_rows(_batch(np.random.default_rng(13), 2, 600))
        # The table is clustered by kd_leaf, so row ids are positions in
        # clustered order: resolve the victims' row ids by oid first.
        before, _ = full_scan(table, columns=["oid"])
        victims = before["_row_id"][np.isin(before["oid"], [0, 1])]
        deleted = table.delete_rows(np.concatenate([victims, ids[:1]]))
        assert deleted == 3
        rows, _ = full_scan(table, columns=["oid"])
        got = _oids(rows)
        assert {0, 1, 600}.isdisjoint(got)
        assert 601 in got
        assert table.num_live_rows == 600 - 2 + 1

    def test_delete_out_of_range_raises(self, setup):
        db, index, _ = setup
        with pytest.raises(IndexError, match="out of range"):
            db.table("t").delete_rows(np.array([600]))

    def test_kd_leaf_synthesized_per_inserted_point(self, setup):
        db, index, _ = setup
        table = db.table("t")
        batch = _batch(np.random.default_rng(14), 20, oid_start=600)
        table.insert_rows(batch)
        snapshot = table.delta_snapshot()
        tree = index.tree
        expected = []
        for p in np.column_stack([batch[d] for d in DIMS]):
            node = 1
            while not tree.is_leaf(node):
                axis, value = tree.split_plane(node)
                node = 2 * node if p[axis] <= value else 2 * node + 1
            expected.append(tree.post_order_id(node))
        assert list(snapshot.columns["kd_leaf"]) == expected

    def test_insert_routing_probes_once_per_frontier_node(self, setup):
        """A count, not a timing: a per-row descent would make
        ``rows * (levels - 1)`` node-cache probes."""
        db, index, _ = setup
        tree = index.tree
        assert tree.num_leaves >= 16
        before = db.io_stats.snapshot()
        db.table("t").insert_rows(_batch(np.random.default_rng(16), 2000, 600))
        after = db.io_stats.snapshot()
        probes = (after.node_cache_hits + after.node_cache_misses) - (
            before.node_cache_hits + before.node_cache_misses
        )
        assert 0 < probes <= tree.num_leaves - 1

    _NON_FINITE = {
        "x": np.array([np.nan]), "y": np.array([1.0]),
        "z": np.array([np.inf]), "oid": np.array([600]),
    }

    def test_insert_rejects_non_finite_coordinates(self, setup):
        db, index, _ = setup
        with pytest.raises(ValueError, match="finite"):
            db.table("t").insert_rows(dict(self._NON_FINITE))
        assert db.table("t").delta_snapshot() is None

    def test_insert_rejects_non_finite_coordinates_with_own_kd_leaf(self, setup):
        # A caller that brings kd_leaf skips the synthesis, not the check:
        # the row would count in num_live_rows and match no query.
        db, index, _ = setup
        batch = dict(self._NON_FINITE, kd_leaf=np.array([1], dtype=np.int64))
        with pytest.raises(ValueError, match="finite"):
            db.table("t").insert_rows(batch)
        assert db.table("t").delta_snapshot() is None
        assert db.ingest_wal.records() == []

    def test_layout_version_bumps_on_every_write(self, setup):
        db, index, _ = setup
        table = db.table("t")
        versions = [table.layout_version]
        table.insert_rows(_batch(np.random.default_rng(15), 1, 600))
        versions.append(table.layout_version)
        table.delete_rows(np.array([0]))
        versions.append(table.layout_version)
        assert len(set(versions)) == 3

    def test_clean_table_has_no_delta(self, setup):
        db, index, _ = setup
        table = db.table("t")
        assert table.delta_snapshot() is None
        assert not table.has_live_delta()
        assert table.layout_version == "g0.e0"
        assert table.num_live_rows == table.num_rows


def _box_points(index, box: Box) -> list[tuple]:
    """The coordinates a side index returns for ``box``, as a sorted list."""
    if isinstance(index, LayeredGridIndex):
        points = index.query_box(box).points
    else:
        points = index.points_of(index.query_box(box)[0])
    return sorted(map(tuple, points))


#: kind -> (builder, build kwargs, the cluster tags an insert must bring).
_SIDE_INDEXES = {
    "voronoi": (VoronoiIndex.build, {"num_seeds": 40}, {"voronoi_cell": 0}),
    "rtree": (RTreeIndex.build, {}, {"rt_leaf": 0}),
    "layered_grid": (
        LayeredGridIndex.build,
        {"base": 64},
        {"RandomID": 0, "Layer": 1, "ContainedBy": 0},
    ),
}


class TestSideIndexStaleReads:
    """Indexes that read main pages only refuse while inserts are pending."""

    @pytest.mark.parametrize("kind", sorted(_SIDE_INDEXES))
    def test_side_index_refuses_pending_inserts(self, kind):
        build, kwargs, tags = _SIDE_INDEXES[kind]
        rng = np.random.default_rng(21)
        data = _batch(rng, 800, oid_start=0)
        db = Database.in_memory(buffer_pages=None)
        index = build(db, "t", data, DIMS, **kwargs)
        table = db.table("t")
        box = Box(np.full(3, 2.0), np.full(3, 8.0))
        poly = Polyhedron.from_box(box)

        def scanned(name: str) -> list[tuple]:
            rows, _ = polyhedron_full_scan(db.table(name), DIMS, poly)
            return sorted(zip(*(rows[d] for d in DIMS)))

        assert _box_points(index, box) == scanned("t")
        # Deletes are honoured on read (every range read applies tombstones).
        inside, _ = polyhedron_full_scan(table, DIMS, poly)
        table.delete_rows(inside["_row_id"][:25])
        assert _box_points(index, box) == scanned("t")

        batch = _batch(rng, 200, oid_start=800)
        batch.update({c: np.full(200, v, dtype=np.int64) for c, v in tags.items()})
        table.insert_rows(batch)
        with pytest.raises(StaleIndexError) as refusal:
            _box_points(index, box)
        assert "'t'" in str(refusal.value)
        assert repr(table.layout_version) in str(refusal.value)
        with pytest.raises(StaleIndexError):
            if kind == "layered_grid":
                index.sample_box(box, 10)
            else:
                index.knn(np.full(3, 5.0), 3)

        merge_table(db, "t")
        # The object left behind addresses the superseded generation,
        # whose frozen delta still holds the inserts: it keeps refusing.
        with pytest.raises(StaleIndexError):
            _box_points(index, box)
        merged, _ = polyhedron_full_scan(
            db.table("t"), DIMS, Polyhedron.from_box(Box(np.zeros(3), np.full(3, 10.0)))
        )
        assert len(merged["oid"]) == 800 - 25 + 200
        rebuilt = build(
            db, "t2", {c: merged[c] for c in DIMS + ["oid"]}, DIMS, **kwargs
        )
        assert _box_points(rebuilt, box) == scanned("t")


class TestSideIndexRangeFetch:
    """A side index's box query reads each page it touches once."""

    @pytest.mark.parametrize("kind", sorted(_SIDE_INDEXES))
    def test_box_query_looks_up_each_page_once(self, kind):
        build, kwargs, _ = _SIDE_INDEXES[kind]
        db = Database.in_memory()
        index = build(db, "t", _batch(np.random.default_rng(22), 6000, 0), DIMS, **kwargs)
        box = Box(np.full(3, 2.0), np.full(3, 8.0))
        io = db.io_stats
        before = io.cache_hits + io.cache_misses
        if kind == "layered_grid":
            result = index.query_box(box)
            row_ids, stats = result.row_ids, result.stats
        else:
            rows, stats = index.query_box(box)
            row_ids = rows["_row_id"]
        assert io.cache_hits + io.cache_misses - before == stats.pages_touched
        scanned, _ = polyhedron_full_scan(db.table("t"), DIMS, Polyhedron.from_box(box))
        assert set(row_ids.tolist()) == set(scanned["_row_id"].tolist())
        assert len(row_ids) == len(scanned["_row_id"])


class TestMerge:
    def test_merge_folds_delta_into_new_generation(self):
        db, index, pts = _build_kd_db(n=400, seed=20)
        table = db.table("t")
        rng = np.random.default_rng(21)
        ids = table.insert_rows(_batch(rng, 30, oid_start=400))
        table.delete_rows(np.concatenate([np.arange(10), ids[:5]]))
        before, _ = full_scan(table, columns=["oid"])

        report = merge_table(db, "t")
        assert report.merged
        assert report.generation == 1
        assert report.rows_before == 400
        assert report.rows_after == 400 - 10 + 25
        assert report.delta_rows_applied == 25
        assert report.tombstones_dropped == 10

        merged = db.table("t")
        assert merged.physical_name == "t@g1"
        assert merged.layout_version == "g1.e0"
        assert merged.num_rows == report.rows_after
        assert not merged.has_live_delta()
        after, _ = full_scan(merged, columns=["oid"])
        assert _oids(after) == _oids(before)

    def test_merge_answers_match_before_and_after(self):
        db, index, _ = _build_kd_db(n=500, seed=22)
        table = db.table("t")
        rng = np.random.default_rng(23)
        table.insert_rows(_batch(rng, 60, oid_start=500))
        table.delete_rows(rng.choice(500, size=40, replace=False).astype(np.int64))
        poly = Polyhedron.from_box(Box(np.full(3, 2.0), np.full(3, 8.0)))
        pre_rows, _ = index.query_polyhedron(poly)
        merge_table(db, "t")
        new_index = db.index("t.kdtree")
        post_rows, _ = new_index.query_polyhedron(poly)
        assert _oids(post_rows) == _oids(pre_rows)

    def test_clean_merge_is_a_noop(self):
        db, index, _ = _build_kd_db(n=100, seed=24)
        report = merge_table(db, "t")
        assert not report.merged
        assert db.table("t").physical_name == "t"
        payload = report.as_dict()
        assert payload["merged"] is False and payload["table"] == "t"

    def test_inflight_query_keeps_the_old_layout(self):
        db, index, _ = _build_kd_db(n=300, seed=25)
        table = db.table("t")
        old_table, old_index = table, index
        ids = table.insert_rows(_batch(np.random.default_rng(26), 10, 300))
        poly = Polyhedron.from_box(Box(np.zeros(3), np.full(3, 10.0)))
        expected = _oids(old_index.query_polyhedron(poly)[0])

        merge_table(db, "t")
        # A query that resolved the old table object before the swap
        # still reads the old pages plus the frozen delta -- same answer.
        assert db.table("t") is not old_table
        stale_rows, _ = old_index.query_polyhedron(poly)
        assert _oids(stale_rows) == expected
        # But the frozen tier refuses new writes routed at the old object.
        with pytest.raises(RuntimeError, match="frozen"):
            old_table._ingest_state.delta.insert(
                {c: np.zeros(1, dtype=old_table.dtype_of(c))
                 for c in old_table.column_names}
            )
        # Writes through the catalog land in the *new* generation's tier.
        db.table("t").delete_rows(np.array([int(i) for i in range(3)]))
        assert db.table("t").has_live_delta()

    def test_merge_regenerates_zone_maps_under_new_namespace(self):
        db, index, _ = _build_kd_db(n=400, seed=27)
        assert db.zone_map("t") is not None
        db.table("t").insert_rows(_batch(np.random.default_rng(28), 8, 400))
        merge_table(db, "t")
        assert db.zone_map("t@g1") is not None

    def test_generation_retirement_has_one_merge_grace(self):
        db, index, _ = _build_kd_db(n=300, seed=29)
        rng = np.random.default_rng(30)
        storage = db.storage

        db.table("t").insert_rows(_batch(rng, 5, 300))
        merge_table(db, "t")
        # g0 pages survive the merge that superseded them (in-flight grace).
        assert storage.num_pages("t") > 0
        assert storage.num_pages("t@g1") > 0

        db.table("t").insert_rows(_batch(rng, 5, 305))
        merge_table(db, "t")
        # The next merge retires them; g1 now rides its own grace period.
        assert storage.num_pages("t") == 0
        assert storage.num_pages("t@g1") > 0
        assert storage.num_pages("t@g2") > 0

    def test_merge_truncates_the_tables_redo_records(self):
        db, index, _ = _build_kd_db(n=200, seed=31)
        db.table("t").insert_rows(_batch(np.random.default_rng(32), 6, 200))
        db.table("t").delete_rows(np.array([0, 1]))
        merge_table(db, "t")
        kinds = [r.kind for r in db.ingest_wal.records() if r.name == "t"]
        assert RecordKind.INSERT not in kinds
        assert RecordKind.DELETE not in kinds
        assert kinds[-2:] == [RecordKind.MERGE_BEGIN, RecordKind.MERGE_COMMIT]

    def test_merge_refuses_to_empty_a_kd_table(self):
        db, index, _ = _build_kd_db(n=64, seed=33)
        db.table("t").delete_rows(np.arange(64, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            merge_table(db, "t")

    def test_drop_table_cleans_every_generation(self):
        db, index, _ = _build_kd_db(n=200, seed=34)
        db.table("t").insert_rows(_batch(np.random.default_rng(35), 4, 200))
        merge_table(db, "t")
        db.drop_table("t")
        assert db.storage.num_pages("t") == 0
        assert db.storage.num_pages("t@g1") == 0
        assert db.ingest.state("t") is None


class TestMergePolicy:
    def test_delta_fraction_tracks_churn(self):
        db, index, _ = _build_kd_db(n=100, seed=40)
        assert db.ingest.delta_fraction("t") == 0.0
        db.table("t").insert_rows(_batch(np.random.default_rng(41), 10, 100))
        db.table("t").delete_rows(np.arange(5, dtype=np.int64))
        assert db.ingest.delta_fraction("t") == pytest.approx(0.15)

    def test_maybe_merge_respects_threshold(self):
        db, index, _ = _build_kd_db(n=100, seed=42)
        db.table("t").insert_rows(_batch(np.random.default_rng(43), 10, 100))
        assert db.ingest.maybe_merge("t", threshold=0.2) is None
        assert db.table("t").physical_name == "t"
        report = db.ingest.maybe_merge("t", threshold=0.05)
        assert report is not None and report.merged
        # Once drained, the same threshold no longer fires.
        assert db.ingest.maybe_merge("t", threshold=0.05) is None

    def test_merge_all_sweeps_every_dirty_table(self):
        db = Database.in_memory(buffer_pages=None)
        rng = np.random.default_rng(44)
        for name in ("a", "b"):
            pts = rng.uniform(0.0, 10.0, size=(100, 3))
            data = {d: pts[:, i] for i, d in enumerate(DIMS)}
            data["oid"] = np.arange(100, dtype=np.int64)
            KdTreeIndex.build(db, name, data, DIMS)
        db.table("a").insert_rows(_batch(rng, 3, 100))
        reports = db.ingest.merge_all()
        assert [r.table for r in reports] == ["a"]

    def test_merge_daemon_drains_past_threshold(self):
        db, index, _ = _build_kd_db(n=200, seed=45)
        daemon = MergeDaemon(db, tables=["t"], threshold=0.2, interval_s=0.01)
        with daemon:
            db.table("t").insert_rows(_batch(np.random.default_rng(46), 60, 200))
            deadline = 200
            while daemon.merges == 0 and deadline:
                time.sleep(0.02)
                deadline -= 1
        assert daemon.merges >= 1
        assert daemon.errors == []
        assert db.table("t").physical_name == "t@g1"
        assert not db.table("t").has_live_delta()

    def test_merge_daemon_start_stop_idempotent(self):
        db, _, _ = _build_kd_db(n=64, seed=47)
        daemon = MergeDaemon(db, interval_s=0.01)
        daemon.start()
        daemon.start()
        daemon.stop()
        daemon.stop()
        assert daemon.errors == []


class TestMutationListeners:
    def test_duplicate_registration_fires_once(self):
        db, _, _ = _build_kd_db(n=64, seed=50)
        calls: list[str] = []
        listener = calls.append
        db.add_mutation_listener(listener)
        db.add_mutation_listener(listener)  # must dedup, not double-fire
        db.table("t").insert_rows(_batch(np.random.default_rng(51), 1, 64))
        assert calls == ["t"]

    def test_failing_listener_does_not_starve_the_others(self, caplog):
        db, _, _ = _build_kd_db(n=64, seed=52)
        calls: list[str] = []

        def broken(name: str) -> None:
            raise RuntimeError("listener bug")

        db.add_mutation_listener(broken)
        db.add_mutation_listener(calls.append)
        with caplog.at_level("ERROR", logger="repro.db.catalog"):
            db.table("t").delete_rows(np.array([0]))
        # The healthy listener still saw the mutation (cache invalidation
        # must never be lost to a buggy subscriber), and the failure is
        # loud in the logs rather than swallowed.
        assert calls == ["t"]
        assert any("mutation listener" in m for m in caplog.messages)

    def test_remove_listener_is_noop_when_absent(self):
        db = Database.in_memory()
        db.remove_mutation_listener(lambda name: None)  # must not raise

    def test_listener_fires_on_merge(self):
        db, _, _ = _build_kd_db(n=64, seed=53)
        db.table("t").insert_rows(_batch(np.random.default_rng(54), 2, 64))
        calls: list[str] = []
        db.add_mutation_listener(calls.append)
        merge_table(db, "t")
        assert "t" in calls


@pytest.mark.faultsweep
class TestChurnUnderFaults:
    def test_ingest_churn_stays_correct_with_faulty_storage(self):
        # The ISSUE's churn smoke: random insert/delete/merge rounds on
        # storage that fails ~5% of reads; retries absorb the faults and
        # every query answer must equal the python-side ground truth.
        from .faultutil import BANDS, build_kd_setup, oid_set

        setup = build_kd_setup(
            num_rows=2000, seed=60, retry=RetryPolicy(attempts=4, backoff_s=0.0)
        )
        db, planner = setup.db, setup.planner
        table = db.table("mag")
        rng = np.random.default_rng(61)

        # Ground truth: oid -> point, maintained purely in python.
        rows, _ = full_scan(table, columns=BANDS + ["oid"])
        expected = {
            int(o): np.array([rows[b][j] for b in BANDS])
            for j, o in enumerate(rows["oid"])
        }
        next_oid = 2000

        setup.injector.configure(read_fault_rate=0.05)
        try:
            for round_no in range(4):
                table = db.table("mag")
                pts = rng.normal(
                    [18.0, 17.0, 16.5, 16.2, 16.0], 0.8, size=(40, 5)
                )
                oids = np.arange(next_oid, next_oid + 40, dtype=np.int64)
                batch = {b: pts[:, j] for j, b in enumerate(BANDS)}
                batch["oid"] = oids
                for extra in set(table.column_names) - set(batch) - {"kd_leaf"}:
                    batch[extra] = np.zeros(40, dtype=table.dtype_of(extra))
                table.insert_rows(batch)
                for j, o in enumerate(oids):
                    expected[int(o)] = pts[j]
                next_oid += 40

                # Delete 20 random live rows, addressed by current row id.
                live, _ = full_scan(table, columns=["oid"])
                victims = rng.choice(len(live["oid"]), size=20, replace=False)
                table.delete_rows(live["_row_id"][victims])
                for o in live["oid"][victims]:
                    del expected[int(o)]

                pts_now = np.array(list(expected.values()))
                oids_now = np.array(list(expected.keys()))
                db.cold_cache()  # force real (faultable) storage reads
                for _ in range(3):
                    center = rng.normal([18.0, 17.0, 16.5, 16.2, 16.0], 0.5)
                    width = rng.uniform(0.5, 2.5)
                    box = Box(center - width, center + width)
                    result = planner.execute(Polyhedron.from_box(box))
                    assert not result.fallback
                    want = set(
                        int(o)
                        for o in oids_now[box.contains_points(pts_now)]
                    )
                    assert oid_set(result.rows) == want

                if round_no % 2 == 1:
                    report = db.ingest.merge("mag")
                    assert report.merged
            assert setup.injector.reads_failed > 0  # the sweep actually hurt
        finally:
            setup.injector.quiesce()
