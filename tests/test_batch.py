"""Shared-work batch execution: differential correctness and isolation.

Fast-tier coverage of the micro-batching layer: the shared scan pass,
the multi-box kd traversal, the planner's batched front end (including
the degrade rule for shared-pass faults, malformed members and the
cached selectivity probe), admission-queue batch formation, and the
service's end-to-end batched serving with per-member deadline isolation.  The
invariant everywhere: batched answers are byte-identical to solo
answers, and one member's deadline, cancellation, or fault never
disturbs its batch siblings.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from .faultutil import BANDS, build_kd_setup, fault_free_ground_truth, oid_set
from .test_solo_batch_contract import SOLO_KD_READ_SEQUENCE, solo_kd_read_setup
from repro import (
    Box,
    Database,
    FaultInjector,
    FaultyStorage,
    KdPartitioner,
    Polyhedron,
    QueryPlanner,
    QueryService,
    ScatterGatherExecutor,
)
from repro.bitmap import BitmapIndex
from repro.core.batch import batch_kd_query
from repro.core.queries import polyhedron_batch_full_scan, polyhedron_full_scan
from repro.db.errors import StorageFault
from repro.db.faults import RetryPolicy
from repro.db.storage import MemoryStorage
from repro.service.admission import AdmissionQueue
from repro.service.errors import DeadlineExceeded
from repro.service.replay import replay_workload, rows_equal, run_serial

SELECTIVITIES = [0.005, 0.02, 0.1, 0.3, 0.6]


@pytest.fixture(scope="module")
def kd_setup():
    """One kd-indexed magnitude table shared by the read-only tests."""
    return build_kd_setup(num_rows=4000, seed=7)


@pytest.fixture(scope="module")
def bitmap_setup():
    """A kd- and bitmap-indexed table, so every engine can be forced."""
    setup = build_kd_setup(num_rows=2000, seed=9)
    BitmapIndex.build(setup.db, "mag", BANDS)
    return setup


def _mixed_polyhedra(setup, count: int, seed_offset: int = 0):
    queries = setup.workload.mixed(count, SELECTIVITIES)
    return [q.polyhedron() for q in queries]


class _TrippingCheck:
    """A cancel check that raises after a fixed number of polls."""

    def __init__(self, after: int, exc: BaseException):
        self.after = after
        self.exc = exc
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls > self.after:
            raise self.exc


class TestBatchFullScan:
    def test_matches_serial_scan_answers(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 10)
        table, dims = kd_setup.index.table, kd_setup.index.dims
        serial = [polyhedron_full_scan(table, dims, p) for p in polys]
        results, counters = polyhedron_batch_full_scan(table, dims, polys)
        assert len(results) == len(polys)
        for (ref_rows, _), (rows, _, error) in zip(serial, results):
            assert error is None
            assert rows_equal(ref_rows, rows)
        assert counters["pages_decoded"] <= table.num_pages
        # Ten queries over one table: nearly every decoded page serves
        # more than one member.
        assert counters["shared_decode_hits"] > counters["pages_decoded"]

    def test_decodes_each_page_once_for_the_whole_batch(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 6)
        table, dims = kd_setup.index.table, kd_setup.index.dims
        solo_pages = sum(
            polyhedron_full_scan(table, dims, p)[1].pages_touched for p in polys
        )
        _, counters = polyhedron_batch_full_scan(table, dims, polys)
        assert counters["pages_decoded"] < solo_pages

    def test_cancelled_member_is_dropped_without_leaking_rows(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 4)
        table, dims = kd_setup.index.table, kd_setup.index.dims
        serial = [polyhedron_full_scan(table, dims, p) for p in polys]
        boom = _TrippingCheck(3, DeadlineExceeded("mid-batch"))
        checks = [None, boom, None, None]
        results, _ = polyhedron_batch_full_scan(
            table, dims, polys, cancel_checks=checks
        )
        rows, _, error = results[1]
        assert rows is None  # partial accumulation discarded, not returned
        assert isinstance(error, DeadlineExceeded)
        for idx in (0, 2, 3):
            sibling_rows, _, sibling_error = results[idx]
            assert sibling_error is None
            assert rows_equal(serial[idx][0], sibling_rows)


class TestBatchKdQuery:
    def test_matches_solo_kd_answers(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 8)
        serial = [kd_setup.index.query_polyhedron(p) for p in polys]
        results, counters = batch_kd_query(kd_setup.index, polys)
        for (ref_rows, _), (rows, _, error) in zip(serial, results):
            assert error is None
            assert rows_equal(ref_rows, rows)
        assert counters["pages_decoded"] >= 0

    def test_shared_fetch_beats_per_query_fetch(self, kd_setup):
        # Overlapping selective queries hit the same clustered pages.
        polys = _mixed_polyhedra(kd_setup, 8)
        solo_pages = sum(
            kd_setup.index.query_polyhedron(p)[1].pages_touched for p in polys
        )
        _, counters = batch_kd_query(kd_setup.index, polys)
        assert counters["pages_decoded"] < solo_pages
        assert counters["shared_decode_hits"] > 0

    def test_deadline_mid_traversal_spares_siblings(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 4)
        serial = [kd_setup.index.query_polyhedron(p) for p in polys]
        boom = _TrippingCheck(5, DeadlineExceeded("mid-traversal"))
        results, _ = batch_kd_query(
            kd_setup.index, polys, cancel_checks=[None, None, boom, None]
        )
        rows, _, error = results[2]
        assert rows is None
        assert isinstance(error, DeadlineExceeded)
        for idx in (0, 1, 3):
            sibling_rows, _, sibling_error = results[idx]
            assert sibling_error is None
            assert rows_equal(serial[idx][0], sibling_rows)


class TestPlannerExecuteBatch:
    def test_differential_against_solo_planning(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 12)
        solo = [kd_setup.planner.execute(p) for p in polys]
        batch = kd_setup.planner.execute_batch(polys)
        assert batch.occupancy == len(polys)
        for ref, member in zip(solo, batch.members):
            assert member.error is None
            assert member.planned.chosen_path == ref.chosen_path
            assert rows_equal(ref.rows, member.planned.rows)
        assert batch.pages_decoded > 0
        assert batch.shared_decode_hits > 0

    def test_correct_under_injected_read_faults(self):
        setup = build_kd_setup(
            num_rows=3000, seed=11, retry=RetryPolicy(attempts=4, backoff_s=0.0)
        )
        polys = [q.polyhedron() for q in setup.workload.mixed(10, SELECTIVITIES)]
        truth = fault_free_ground_truth(setup, polys)
        setup.db.cold_cache()
        setup.injector.configure(read_fault_rate=0.05)
        batch = setup.planner.execute_batch(polys)
        setup.injector.quiesce()
        for ref_rows, member in zip(truth, batch.members):
            if member.error is not None:
                # Only a terminal storage fault may fail a member -- and
                # never with a wrong answer.
                assert isinstance(member.error, StorageFault)
                continue
            assert rows_equal(ref_rows, member.planned.rows)

    def test_doomed_kd_pass_is_served_by_one_shared_scan(self, kd_setup, monkeypatch):
        polys = _mixed_polyhedra(kd_setup, 6)
        solo = [kd_setup.planner.execute(p) for p in polys]
        assert any(ref.chosen_path == "kdtree" for ref in solo)

        def doomed(*args, **kwargs):
            raise StorageFault("shared pass died")

        scans = []

        def counted_scan(*args, **kwargs):
            scans.append(args)
            return polyhedron_batch_full_scan(*args, **kwargs)

        monkeypatch.setattr("repro.core.engines.batch_kd_query", doomed)
        monkeypatch.setattr("repro.core.engines.polyhedron_batch_full_scan", counted_scan)
        batch = kd_setup.planner.execute_batch(polys)
        assert len(scans) == 1
        for ref, member in zip(solo, batch.members):
            assert member.error is None
            assert rows_equal(ref.rows, member.planned.rows)
            assert member.planned.chosen_path == "scan"
            if ref.chosen_path == "kdtree":  # moved into the scan group
                assert member.planned.fallback
                assert member.planned.fallback_reason == "kdtree path failed: StorageFault"

    def test_doomed_scan_pass_fails_only_its_members(self, kd_setup, monkeypatch):
        polys = _mixed_polyhedra(kd_setup, 8)
        solo = [kd_setup.planner.execute(p) for p in polys]
        paths = {ref.chosen_path for ref in solo}
        assert {"kdtree", "scan"} <= paths

        def doomed(*args, **kwargs):
            raise StorageFault("scan pass died")

        monkeypatch.setattr("repro.core.engines.polyhedron_batch_full_scan", doomed)
        batch = kd_setup.planner.execute_batch(polys)
        for ref, member in zip(solo, batch.members):
            if ref.chosen_path == "scan":
                assert isinstance(member.error, StorageFault)
                assert member.planned is None
            else:
                assert member.error is None
                assert rows_equal(ref.rows, member.planned.rows)
        scanned = next(p for p, ref in zip(polys, solo) if ref.chosen_path == "scan")
        with pytest.raises(StorageFault):
            kd_setup.planner.execute(scanned)

    @pytest.mark.parametrize("engine", ["auto", "kdtree", "scan", "bitmap", "hybrid"])
    def test_malformed_member_fails_alone(self, bitmap_setup, engine):
        good = _mixed_polyhedra(bitmap_setup, 2)
        bad = Polyhedron.from_box(Box.unit(3))  # the index is 5-D
        planner = QueryPlanner(bitmap_setup.index, seed=7, engine=engine)
        batch = planner.execute_batch([good[0], bad, good[1]])
        error = batch.members[1].error
        assert isinstance(error, ValueError)
        assert "3" in str(error) and "5" in str(error)
        for idx, poly in ((0, good[0]), (2, good[1])):
            assert batch.members[idx].error is None
            assert rows_equal(planner.execute(poly).rows, batch.members[idx].planned.rows)
        with pytest.raises(ValueError, match="polyhedron dim 3 != index dim 5"):
            planner.execute(bad)

    def test_batch_of_one_reads_in_solo_order(self, tmp_path):
        storage, _, planner, polyhedron = solo_kd_read_setup(tmp_path / "db")
        batch = planner.execute_batch([polyhedron])
        assert batch.members[0].planned.chosen_path == "kdtree"
        assert storage.reads == SOLO_KD_READ_SEQUENCE


class TestSelectivityProbeCache:
    def test_second_estimate_is_zero_io(self):
        setup = build_kd_setup(num_rows=3000, seed=13)
        poly = setup.workload.mixed(1, [0.1])[0].polyhedron()
        first = setup.planner.estimate_selectivity(poly)
        before = setup.db.io_stats.as_dict()
        again = setup.planner.estimate_selectivity(poly)
        other = setup.planner.estimate_selectivity(
            setup.workload.mixed(2, [0.4])[1].polyhedron()
        )
        after = setup.db.io_stats.as_dict()
        assert first == again
        assert 0.0 <= other[0] <= 1.0
        # Not even buffer-pool traffic: the cached sample answers alone.
        assert after["page_reads"] == before["page_reads"]
        assert after["cache_hits"] == before["cache_hits"]
        assert after["cache_misses"] == before["cache_misses"]

    def test_catalog_mutation_invalidates_the_cache(self):
        setup = build_kd_setup(num_rows=2000, seed=17)
        poly = setup.workload.mixed(1, [0.1])[0].polyhedron()
        setup.planner.estimate_selectivity(poly)
        assert setup.planner._probe_cache is not None
        # A mutation of some *other* table leaves the sample alone.
        setup.db.create_table("unrelated", {"v": np.arange(8.0)})
        assert setup.planner._probe_cache is not None
        setup.db.drop_table(setup.planner.index.table.name)
        assert setup.planner._probe_cache is None

    def test_probe_fault_leaves_cache_unbuilt(self):
        setup = build_kd_setup(
            num_rows=2000, seed=19, retry=RetryPolicy(attempts=2, backoff_s=0.0)
        )
        poly = setup.workload.mixed(1, [0.1])[0].polyhedron()
        setup.db.cold_cache()
        setup.injector.fail_next_reads(100_000)
        with pytest.raises(StorageFault):
            setup.planner.estimate_selectivity(poly)
        assert setup.planner._probe_cache is None
        setup.injector.quiesce()
        estimate, probed = setup.planner.estimate_selectivity(poly)
        assert probed > 0
        assert setup.planner._probe_cache is not None


class TestAdmissionPopBatch:
    def test_empty_queue_times_out_to_empty_batch(self):
        queue = AdmissionQueue(8)
        assert queue.pop_batch(4, timeout=0.01) == []

    def test_drains_backlog_up_to_max_items(self):
        queue = AdmissionQueue(8)
        for i in range(6):
            assert queue.offer(i)
        assert queue.pop_batch(4, timeout=0.01) == [0, 1, 2, 3]
        assert queue.pop_batch(4, timeout=0.01) == [4, 5]

    def test_formation_delay_gathers_late_arrivals(self):
        queue = AdmissionQueue(8)
        queue.offer("early")

        def late():
            time.sleep(0.02)
            queue.offer("late")

        thread = threading.Thread(target=late)
        thread.start()
        batch = queue.pop_batch(2, delay_s=0.5, timeout=0.1)
        thread.join()
        assert batch == ["early", "late"]

    def test_full_batch_skips_the_delay(self):
        queue = AdmissionQueue(8)
        queue.offer("a")
        queue.offer("b")
        started = time.monotonic()
        batch = queue.pop_batch(2, delay_s=5.0, timeout=0.1)
        assert batch == ["a", "b"]
        assert time.monotonic() - started < 1.0

    def test_rejects_nonpositive_max_items(self):
        with pytest.raises(ValueError):
            AdmissionQueue(8).pop_batch(0)


class TestServiceBatchedExecution:
    def test_batched_replay_matches_serial(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 24)
        serial = run_serial(kd_setup.planner, polys)
        service = QueryService(
            kd_setup.db,
            kd_setup.planner,
            workers=2,
            batch_size=6,
            batch_delay_s=0.003,
            cache_entries=0,
        )
        with service:
            report = replay_workload(service, polys, concurrency=8)
        assert not report.errors
        for idx, ref in enumerate(serial):
            assert rows_equal(ref, report.rows(idx))
        summary = service.metrics.summary()
        assert summary["batches"] > 0
        assert summary["mean_batch_occupancy"] > 1.0
        assert summary["shared_decode_hits"] > 0
        assert "batches formed" in service.metrics.format_report()

    def test_cache_hits_are_peeled_before_batch_formation(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 6)
        doubled = polys + polys
        serial = run_serial(kd_setup.planner, polys)
        service = QueryService(
            kd_setup.db,
            kd_setup.planner,
            workers=1,
            batch_size=4,
            batch_delay_s=0.003,
        )
        with service:
            report = replay_workload(service, doubled, concurrency=4)
        assert not report.errors
        for idx in range(len(doubled)):
            assert rows_equal(serial[idx % len(polys)], report.rows(idx))
        summary = service.metrics.summary()
        assert summary["cache_hits"] > 0
        # Peeled hits never count toward batch occupancy.
        assert summary["batch_members"] + summary["cache_hits"] >= len(doubled)
        assert summary["batch_members"] <= len(doubled) - summary["cache_hits"]

    def test_expired_member_fails_alone_in_a_formed_batch(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 4)
        serial = run_serial(kd_setup.planner, polys)
        service = QueryService(
            kd_setup.db,
            kd_setup.planner,
            workers=1,
            batch_size=4,
            batch_delay_s=0.2,
            cache_entries=0,
        )
        with service:
            session = service.open_session("isolation")
            tickets = [
                service.submit(
                    poly,
                    session=session,
                    deadline=0.0 if idx == 1 else None,
                )
                for idx, poly in enumerate(polys)
            ]
            with pytest.raises(DeadlineExceeded):
                tickets[1].result(30.0)
            for idx in (0, 2, 3):
                outcome = tickets[idx].result(30.0)
                assert rows_equal(serial[idx], outcome.rows)
        summary = service.metrics.summary()
        assert summary["deadline_misses"] == 1
        assert summary["completed"] == 3

    def test_batch_size_one_keeps_the_solo_path(self, kd_setup):
        polys = _mixed_polyhedra(kd_setup, 6)
        serial = run_serial(kd_setup.planner, polys)
        service = QueryService(
            kd_setup.db, kd_setup.planner, workers=2, cache_entries=0
        )
        with service:
            report = replay_workload(service, polys, concurrency=4)
        assert not report.errors
        for idx, ref in enumerate(serial):
            assert rows_equal(ref, report.rows(idx))
        assert service.metrics.summary()["batches"] == 0


DIMS3 = ["x", "y", "z"]


def _cluster_data(n: int = 4000, seed: int = 23) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0], [0.5, 0.3, 0.6], size=(n // 2, 3)),
            rng.normal([3.0, 2.0, 1.0], [0.8, 0.5, 0.4], size=(n - n // 2, 3)),
        ]
    )
    data = {d: pts[:, i] for i, d in enumerate(DIMS3)}
    data["oid"] = np.arange(n, dtype=np.int64)
    return data


def _boxes_and_polyhedra(seed: int = 3, count: int = 8) -> list[Polyhedron]:
    rng = np.random.default_rng(seed)
    polys = []
    for i in range(count):
        center = rng.uniform([-1, -1, -1], [4, 3, 2])
        if i % 2 == 0:
            polys.append(Polyhedron.from_box(Box.cube(center, rng.uniform(0.5, 4.0))))
        else:
            from repro.geometry import Halfspace

            halfspaces = []
            for _ in range(4):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                halfspaces.append(
                    Halfspace(direction, float(direction @ center) + rng.uniform(0.5, 2.5))
                )
            polys.append(Polyhedron(halfspaces))
    return polys


class TestShardedBatchedExecution:
    def test_sharded_batch_matches_solo_scatter_gather(self):
        data = _cluster_data()
        shard_set = KdPartitioner(4, buffer_pages=None).partition(
            "pts_batch", data, DIMS3
        )
        executor = ScatterGatherExecutor(shard_set)
        try:
            polys = _boxes_and_polyhedra()
            solo = [executor.execute(p) for p in polys]
            batch = executor.execute_batch(polys)
            assert batch.occupancy == len(polys)
            for ref, member in zip(solo, batch.members):
                assert member.error is None
                assert oid_set(member.planned.rows) == oid_set(ref.rows)
                assert np.array_equal(
                    np.sort(member.planned.rows["_row_id"]),
                    np.sort(ref.rows["_row_id"]),
                )
        finally:
            executor.close()

    def test_dead_shard_degrades_members_to_partial(self):
        data = _cluster_data(seed=29)
        injector = FaultInjector(seed=5)
        fast_retry = RetryPolicy(attempts=2, backoff_s=0.0)

        def factory(shard_id: int) -> Database:
            if shard_id == 0:
                return Database(
                    FaultyStorage(MemoryStorage(), injector),
                    buffer_pages=None,
                    retry=fast_retry,
                )
            return Database.in_memory(buffer_pages=None)

        shard_set = KdPartitioner(4, database_factory=factory).partition(
            "faulty_batch", data, DIMS3
        )
        executor = ScatterGatherExecutor(shard_set)
        try:
            poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 10.0))
            intact = executor.execute_batch([poly, poly])
            assert all(not m.planned.partial for m in intact.members)

            shard_set[0].database.cold_cache()
            injector.fail_next_reads(1_000_000)
            degraded = executor.execute_batch([poly, poly])
            survivor_oids = frozenset(
                int(v)
                for shard in list(shard_set)[1:]
                for v in shard.table.read_column("oid")
            )
            for member in degraded.members:
                assert member.error is None
                assert member.planned.partial
                assert member.planned.failed_shards == (0,)
                assert (
                    oid_set(member.planned.rows)
                    == oid_set(intact.members[0].planned.rows) & survivor_oids
                )
            injector.quiesce()
        finally:
            executor.close()

    def test_sharded_service_replay_with_batches(self):
        data = _cluster_data(seed=31)
        shard_set = KdPartitioner(4, buffer_pages=None).partition(
            "pts_svc_batch", data, DIMS3
        )
        executor = ScatterGatherExecutor(shard_set)
        try:
            polys = _boxes_and_polyhedra(seed=9, count=12)
            solo = [executor.execute(p) for p in polys]
            service = QueryService(
                None,
                executor,
                workers=2,
                batch_size=4,
                batch_delay_s=0.003,
                cache_entries=0,
            )
            with service:
                report = replay_workload(service, polys, concurrency=6)
            assert not report.errors
            for idx, ref in enumerate(solo):
                assert oid_set(report.rows(idx)) == oid_set(ref.rows)
            assert service.metrics.summary()["batches"] > 0
        finally:
            executor.close()
