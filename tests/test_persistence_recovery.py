"""Tests for catalog persistence, recovery logging, and the LOD pyramid."""

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    DelaunayPyramid,
    IngestWal,
    KdTreeIndex,
    LoggedStorage,
    attach_database,
    merge_table,
    save_catalog,
)
from repro.db import MemoryStorage, full_scan
from repro.db.persistence import CATALOG_FILENAME
from repro.db.recovery import RecordLog
from repro.geometry.sfc import morton_decode, morton_index


class TestLoggedStorage:
    @pytest.fixture()
    def logged_db(self):
        logged = LoggedStorage(MemoryStorage())
        db = Database(logged, buffer_pages=None)
        rng = np.random.default_rng(0)
        table = db.create_table("t", {"a": rng.normal(size=500)}, rows_per_page=64)
        return db, logged, table

    def test_one_record_per_page_write(self, logged_db):
        _, logged, table = logged_db
        assert len(logged.log.records()) == table.num_pages

    def test_log_amplifies_write_bytes(self, logged_db):
        # The "huge / slow log" effect: full recovery ~doubles bytes written.
        _, logged, _ = logged_db
        assert logged.log.log_bytes() >= logged.inner.stats.bytes_written

    def test_log_bytes_is_the_sum_of_frame_lengths(self, logged_db):
        _, logged, _ = logged_db
        frames = logged.log.frames()
        assert logged.log.log_bytes() == sum(len(raw) for raw in frames)
        assert logged.stats.bytes_written == (
            logged.inner.stats.bytes_written + logged.log.log_bytes()
        )
        assert RecordLog(frames).log_bytes() == logged.log.log_bytes()

    def test_records_verify(self, logged_db):
        _, logged, _ = logged_db
        assert all(record.verify() for record in logged.log.records())

    def test_replay_rebuilds_storage(self, logged_db):
        db, logged, table = logged_db
        fresh = MemoryStorage()
        applied = logged.replay(fresh)
        assert applied == table.num_pages
        original = logged.inner.read_page("t", 0)
        rebuilt = fresh.read_page("t", 0)
        assert np.array_equal(original.columns["a"], rebuilt.columns["a"])

    def test_corrupt_record_rejected_in_strict_mode(self, logged_db):
        _, logged, _ = logged_db
        # Flip a payload byte in the last record.
        raw = bytearray(logged.log._log[-1])
        raw[-1] ^= 0xFF
        logged.log._log[-1] = bytes(raw)
        with pytest.raises(ValueError, match="checksum"):
            logged.replay(MemoryStorage(), on_corrupt="raise")

    def test_corrupt_record_skipped_with_warning_by_default(self, logged_db, caplog):
        _, logged, table = logged_db
        raw = bytearray(logged.log._log[2])
        raw[-1] ^= 0xFF
        logged.log._log[2] = bytes(raw)
        fresh = MemoryStorage()
        with caplog.at_level("WARNING", logger="repro.db.recovery"):
            applied = logged.replay(fresh)
        # Every healthy record applied; the torn one skipped, never written.
        assert applied == table.num_pages - 1
        assert fresh.num_pages("t") == table.num_pages - 1
        assert any("checksum" in message for message in caplog.messages)

    def test_corrupt_header_skipped_with_warning(self, logged_db, caplog):
        _, logged, table = logged_db
        # Mangle the magic itself: the record header is unreadable.
        logged.log._log[0] = b"XXXX" + logged.log._log[0][4:]
        fresh = MemoryStorage()
        with caplog.at_level("WARNING", logger="repro.db.recovery"):
            applied = logged.replay(fresh)
        assert applied == table.num_pages - 1
        with pytest.raises(ValueError, match="magic"):
            logged.replay(MemoryStorage(), on_corrupt="raise")

    def test_replay_rejects_unknown_mode(self, logged_db):
        _, logged, _ = logged_db
        with pytest.raises(ValueError, match="on_corrupt"):
            logged.replay(MemoryStorage(), on_corrupt="ignore")

    def test_reads_pass_through(self, logged_db):
        db, logged, table = logged_db
        db.cold_cache()
        page = table.read_page(0)
        assert page.num_rows == 64

    def test_sequence_increases(self, logged_db):
        _, logged, _ = logged_db
        sequences = [r.sequence for r in logged.log.records()]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)


class TestLogRecordVerify:
    """Unit coverage of the checksum path itself (previously untested)."""

    @staticmethod
    def _record(payload: bytes):
        import zlib

        from repro.db import LogRecord as LR

        return LR(
            sequence=1,
            kind=0,
            name="t",
            payload=payload,
            checksum=zlib.crc32(payload),
        )

    def test_intact_payload_verifies(self):
        record = self._record(b"healthy page bytes")
        assert record.verify()

    def test_any_single_byte_flip_is_detected(self):
        payload = b"0123456789abcdef"
        for position in range(len(payload)):
            mutated = bytearray(payload)
            mutated[position] ^= 0x01
            record = self._record(payload)
            record.payload = bytes(mutated)
            assert not record.verify(), f"flip at byte {position} went undetected"

    def test_truncated_payload_is_detected(self):
        record = self._record(b"0123456789abcdef")
        record.payload = record.payload[:-1]
        assert not record.verify()

    def test_wrong_checksum_is_detected(self):
        record = self._record(b"payload")
        record.checksum ^= 0xDEADBEEF
        assert not record.verify()


class TestCatalogPersistence:
    def test_save_and_attach_roundtrip(self, tmp_path):
        db = Database.on_disk(tmp_path)
        rng = np.random.default_rng(1)
        data = {"a": rng.normal(size=300), "key": rng.integers(0, 5, 300)}
        db.create_table("t1", data, rows_per_page=32, clustered_by=("key",))
        db.create_table("t2", {"x": np.arange(10.0)})
        path = save_catalog(db)
        assert path.name == CATALOG_FILENAME

        reopened = attach_database(tmp_path)
        assert reopened.table_names() == ["t1", "t2"]
        t1 = reopened.table("t1")
        assert t1.num_rows == 300
        assert t1.clustered_by == ("key",)
        assert (np.diff(t1.read_column("key")) >= 0).all()
        assert np.allclose(
            np.sort(t1.read_column("a")), np.sort(data["a"])
        )

    def test_attach_preserves_dtypes(self, tmp_path):
        db = Database.on_disk(tmp_path)
        db.create_table(
            "typed",
            {
                "f": np.arange(5.0),
                "i": np.arange(5, dtype=np.int32),
                "s": np.array([b"abc"] * 5, dtype="S3"),
            },
        )
        save_catalog(db)
        reopened = attach_database(tmp_path)
        table = reopened.table("typed")
        assert table.dtype_of("i") == np.int32
        assert table.dtype_of("s") == np.dtype("S3")

    def test_attach_missing_catalog(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            attach_database(tmp_path)

    def test_save_requires_file_backend(self):
        db = Database.in_memory()
        with pytest.raises(TypeError):
            save_catalog(db)

    def test_attach_detects_missing_pages(self, tmp_path):
        db = Database.on_disk(tmp_path)
        db.create_table("t", {"a": np.arange(100.0)}, rows_per_page=10)
        save_catalog(db)
        # Delete a page file behind the catalog's back.
        victim = next((tmp_path / "t").glob("*.page"))
        victim.unlink()
        with pytest.raises(ValueError, match="pages"):
            attach_database(tmp_path)

    def test_indexes_rebuild_over_attached_tables(self, tmp_path):
        # The static-database recovery story: reattach, then rebuild the
        # index from the stored columns.
        rng = np.random.default_rng(2)
        db = Database.on_disk(tmp_path)
        pts = rng.normal(size=(2000, 3))
        db.create_table("pts", {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2]})
        save_catalog(db)

        reopened = attach_database(tmp_path)
        source = reopened.table("pts")
        columns = source.read_columns(["x", "y", "z"])
        index = KdTreeIndex.build(reopened, "pts_kd", columns, ["x", "y", "z"])
        box = Box.cube(np.zeros(3), 0.5)
        _, stats = index.query_box(box)
        assert stats.rows_returned == int(box.contains_points(pts).sum())


class TestIngestWalRecovery:
    """The ingest crash-point matrix: kill the process at every seam of a
    write (WAL append -> delta apply -> merge flush -> layout swap) and
    reopen from what would actually be durable -- the page files, the last
    saved catalog, and the surviving WAL frames.  Invariants: no
    acknowledged row is lost, and a torn merge is never visible."""

    N = 300

    def _disk_db(self, tmp_path):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 10.0, size=(self.N, 3))
        data = {d: pts[:, i] for i, d in enumerate("xyz")}
        data["oid"] = np.arange(self.N, dtype=np.int64)
        db = Database.on_disk(tmp_path)
        db.create_table("t", data, rows_per_page=64)
        save_catalog(db)
        return db

    @staticmethod
    def _oids(db) -> set[int]:
        rows, _ = full_scan(db.table("t"), columns=["oid"])
        return set(int(v) for v in rows["oid"])

    @staticmethod
    def _batch(count: int, oid_start: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(oid_start)
        pts = rng.uniform(0.0, 10.0, size=(count, 3))
        batch = {d: pts[:, i] for i, d in enumerate("xyz")}
        batch["oid"] = np.arange(oid_start, oid_start + count, dtype=np.int64)
        return batch

    def test_acked_writes_survive_a_crash_before_any_merge(self, tmp_path):
        db = self._disk_db(tmp_path)
        db.table("t").insert_rows(self._batch(5, self.N))
        db.table("t").delete_rows(np.array([0, 1, 2]))
        expected = self._oids(db)

        # Crash: only the page files, catalog, and WAL frames survive.
        reopened = attach_database(tmp_path, wal_frames=db.ingest_wal.frames())
        assert self._oids(reopened) == expected
        assert reopened.table("t").num_live_rows == self.N - 3 + 5

    def test_crash_between_wal_append_and_delta_apply(self, tmp_path):
        db = self._disk_db(tmp_path)
        batch = self._batch(4, self.N)
        # The writer died after the WAL append returned (the row is
        # acknowledged the moment the record is durable) but before the
        # delta tier -- and therefore any reader -- saw the rows.
        db.ingest_wal.append_insert(
            "t",
            {
                name: np.ascontiguousarray(
                    batch[name], dtype=db.table("t").dtype_of(name)
                )
                for name in db.table("t").column_names
            },
        )
        assert self.N not in self._oids(db)  # never applied pre-crash

        reopened = attach_database(tmp_path, wal_frames=db.ingest_wal.frames())
        got = self._oids(reopened)
        assert {self.N, self.N + 1, self.N + 2, self.N + 3} <= got

    def test_crash_during_merge_flush_hides_the_torn_merge(self, tmp_path):
        db = self._disk_db(tmp_path)
        db.table("t").insert_rows(self._batch(6, self.N))
        db.table("t").delete_rows(np.array([7]))
        expected = self._oids(db)
        frames_before_merge = db.ingest_wal.frames()

        # The merge wrote its new generation's pages (and maybe swapped
        # in memory) but died before the commit fence reached the log;
        # the durable catalog still maps generation 0.  The stray
        # ``t@g1`` pages are unreferenced garbage, not a torn layout.
        merge_table(db, "t")
        crashed_wal = IngestWal(frames_before_merge)
        crashed_wal.append_merge_begin("t", 1)

        reopened = attach_database(tmp_path, wal_frames=crashed_wal.frames())
        assert reopened.table("t").physical_name == "t"
        assert self._oids(reopened) == expected
        # Every acknowledged pre-merge write was redone from the log.
        assert reopened.table("t").has_live_delta()

    def test_crash_after_commit_and_catalog_save_keeps_the_merge(self, tmp_path):
        db = self._disk_db(tmp_path)
        db.table("t").insert_rows(self._batch(6, self.N))
        db.table("t").delete_rows(np.array([7]))
        expected = self._oids(db)
        merge_table(db, "t")
        # The commit fence's durability contract for file-backed
        # databases: the catalog is saved with (after) the fence, so a
        # reopen maps the new generation.
        save_catalog(db)

        reopened = attach_database(tmp_path, wal_frames=db.ingest_wal.frames())
        table = reopened.table("t")
        assert table.physical_name == "t@g1"
        assert self._oids(reopened) == expected
        # The log was truncated at commit: nothing is replayed twice.
        assert not table.has_live_delta()
        assert table.num_rows == self.N - 1 + 6
        # The merged generation's zone map round-tripped under its
        # physical namespace.
        assert reopened.zone_map("t@g1") is not None

    def test_post_merge_writes_replay_onto_the_merged_generation(self, tmp_path):
        db = self._disk_db(tmp_path)
        db.table("t").insert_rows(self._batch(4, self.N))
        merge_table(db, "t")
        save_catalog(db)
        db.table("t").insert_rows(self._batch(3, self.N + 4))
        expected = self._oids(db)

        reopened = attach_database(tmp_path, wal_frames=db.ingest_wal.frames())
        assert self._oids(reopened) == expected
        assert reopened.table("t").num_live_rows == self.N + 7

    def test_torn_wal_frame_skipped_or_raised_on_attach(self, tmp_path, caplog):
        db = self._disk_db(tmp_path)
        db.table("t").insert_rows(self._batch(2, self.N))
        db.table("t").insert_rows(self._batch(2, self.N + 2))
        frames = db.ingest_wal.frames()
        mangled = bytearray(frames[-1])
        mangled[-1] ^= 0xFF
        frames[-1] = bytes(mangled)

        with caplog.at_level("WARNING", logger="repro.ingest.wal"):
            reopened = attach_database(tmp_path, wal_frames=frames)
        got = self._oids(reopened)
        assert {self.N, self.N + 1} <= got  # the healthy record replayed
        assert self.N + 2 not in got  # the torn one skipped, loudly
        assert any("checksum" in m for m in caplog.messages)
        with pytest.raises(ValueError, match="checksum"):
            attach_database(tmp_path, wal_frames=frames, on_corrupt="raise")


class TestDelaunayPyramid:
    @pytest.fixture(scope="class")
    def pyramid(self, clustered_points_3d):
        return DelaunayPyramid.build(
            clustered_points_3d, level_sizes=[40, 200, 800], seed=3
        )

    def test_levels(self, pyramid):
        assert pyramid.num_levels == 3
        assert pyramid.level(0).num_seeds == 40
        assert pyramid.level(2).num_seeds == 800

    def test_nested(self, pyramid):
        assert pyramid.is_nested()

    def test_level_for_view_refines(self, pyramid, clustered_points_3d):
        whole = Box.from_points(clustered_points_3d)
        # A huge target forces the finest level.
        assert pyramid.level_for_view(whole, 10**6) == 2
        # A tiny target is satisfied by the coarsest.
        assert pyramid.level_for_view(whole, 5) == 0

    def test_edges_in_view_monotone_in_level(self, pyramid, clustered_points_3d):
        whole = Box.from_points(clustered_points_3d)
        counts = [pyramid.edges_in_view(lvl, whole) for lvl in range(3)]
        assert counts == sorted(counts)

    def test_validation(self, clustered_points_3d):
        with pytest.raises(ValueError):
            DelaunayPyramid.build(clustered_points_3d, level_sizes=[100, 50])
        with pytest.raises(ValueError):
            DelaunayPyramid.build(
                clustered_points_3d, level_sizes=[10, 10**7]
            )
        with pytest.raises(ValueError):
            DelaunayPyramid([], [])

    def test_default_levels(self, clustered_points_3d):
        pyramid = DelaunayPyramid.build(clustered_points_3d, seed=4)
        assert pyramid.num_levels == 3
        assert pyramid.is_nested()


class TestMortonDecode:
    def test_roundtrip_2d(self):
        for code in range(256):
            assert morton_index(morton_decode(code, 2, 4), 4) == code

    def test_roundtrip_3d(self):
        for code in range(512):
            assert morton_index(morton_decode(code, 3, 3), 3) == code
