"""Unit tests for the concurrent query service's building blocks."""

import threading
import time

import numpy as np
import pytest

from repro import Database, KdTreeIndex, QueryPlanner, sdss_color_sample
from repro.datasets import QueryWorkload
from repro.geometry import Box, Polyhedron
from repro.geometry.halfspace import Halfspace
from repro.service import (
    AdmissionQueue,
    AdmissionRejected,
    Deadline,
    DeadlineExceeded,
    MetricsRegistry,
    QueryMetrics,
    QueryService,
    ResultCache,
    ServiceClosed,
    SessionManager,
    query_fingerprint,
)

BANDS = ["u", "g", "r", "i", "z"]


@pytest.fixture(scope="module")
def served():
    sample = sdss_color_sample(4000, seed=3)
    db = Database.in_memory(buffer_pages=512)
    index = KdTreeIndex.build(db, "mag", sample.columns(), BANDS)
    planner = QueryPlanner(index, seed=3)
    workload = QueryWorkload(sample.magnitudes, seed=3)
    return db, index, planner, workload


class TestSessions:
    def test_ids_are_unique_and_stats_accumulate(self):
        manager = SessionManager()
        a, b = manager.open("alice"), manager.open()
        assert a.session_id != b.session_id
        assert manager.get(a.session_id) is a
        a.note_submitted()
        a.note_completed(rows_returned=5, queue_wait_s=0.1, exec_time_s=0.2, cache_hit=True)
        a.note_failed(deadline_missed=True)
        snap = a.snapshot()
        assert snap.submitted == 1
        assert snap.completed == 1
        assert snap.rows_returned == 5
        assert snap.cache_hits == 1
        assert snap.deadline_misses == 1
        assert len(manager) == 2
        manager.close(b.session_id)
        assert len(manager) == 1

    def test_unknown_session_raises(self):
        with pytest.raises(KeyError):
            SessionManager().get("nope")


class TestAdmissionQueue:
    def test_bounded_offer_and_counters(self):
        queue = AdmissionQueue(depth=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")  # full: explicit backpressure
        counters = queue.counters()
        assert counters["admitted"] == 2
        assert counters["rejected"] == 1
        assert counters["high_water"] == 2
        assert queue.pop_batch(1) == ["a"]  # FIFO
        assert queue.offer("c")  # room again after a pop
        assert queue.pop_batch(1) == ["b"] and queue.pop_batch(1) == ["c"]
        assert queue.pop_batch(1, timeout=0.01) == []

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(depth=0)


class TestResultCache:
    def _poly(self, scale=1.0):
        # u <= 20 and -g <= -10, optionally with scaled (equivalent) normals.
        return Polyhedron(
            [
                Halfspace(np.array([scale, 0.0, 0.0, 0.0, 0.0]), 20.0 * scale),
                Halfspace(np.array([0.0, -scale, 0.0, 0.0, 0.0]), -10.0 * scale),
            ]
        )

    def test_fingerprint_normalizes_scale_and_order(self):
        base = query_fingerprint("t", BANDS, self._poly())
        scaled = query_fingerprint("t", BANDS, self._poly(scale=4.0))
        reordered = query_fingerprint(
            "t",
            BANDS,
            Polyhedron(list(reversed(list(self._poly().halfspaces)))),
        )
        assert base == scaled == reordered

    def test_fingerprint_distinguishes_table_and_geometry(self):
        base = query_fingerprint("t", BANDS, self._poly())
        assert base != query_fingerprint("other", BANDS, self._poly())
        other_geometry = Polyhedron(
            [Halfspace(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), 19.0)]
        )
        assert base != query_fingerprint("t", BANDS, other_geometry)

    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("k1", "t", 1)
        cache.put("k2", "t", 2)
        assert cache.get("k1") == 1  # refreshes k1
        cache.put("k3", "t", 3)  # evicts k2 (least recent)
        assert cache.get("k2") is None
        assert cache.get("k3") == 3
        counters = cache.counters()
        assert counters["hits"] == 2 and counters["misses"] == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_invalidate_table(self):
        cache = ResultCache(capacity=8)
        cache.put("k1", "alpha", 1)
        cache.put("k2", "beta", 2)
        assert cache.invalidate_table("alpha") == 1
        assert cache.get("k1") is None
        assert cache.get("k2") == 2


class TestDeadline:
    def test_expiry_and_check(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded):
            deadline.check()
        relaxed = Deadline(60.0)
        assert not relaxed.expired()
        relaxed.check()  # no raise
        assert relaxed.remaining() > 0

    def test_cancel_check_aborts_planner(self, served):
        _, _, planner, workload = served
        poly = workload.figure2_query().polyhedron(BANDS)

        def cancel():
            raise DeadlineExceeded("now")

        with pytest.raises(DeadlineExceeded):
            planner.execute(poly, cancel_check=cancel)


class TestMetricsRegistry:
    def test_summary_aggregates(self):
        registry = MetricsRegistry()
        registry.note_submitted()
        registry.note_submitted()
        registry.note_rejected()
        registry.record(
            QueryMetrics(
                query_id=1, session_id="s1", queue_wait_s=0.1, exec_time_s=0.2,
                pages_read=7, rows_returned=10, cache_hit=True, chosen_path="cache",
            )
        )
        registry.record(
            QueryMetrics(query_id=2, session_id="s1", deadline_missed=True,
                         error="DeadlineExceeded")
        )
        summary = registry.summary()
        assert summary["submitted"] == 2
        assert summary["rejected"] == 1
        assert summary["completed"] == 1
        assert summary["deadline_misses"] == 1
        assert summary["cache_hits"] == 1
        assert summary["pages_read"] == 7
        assert summary["max_queue_wait_s"] == pytest.approx(0.1)
        report = registry.format_report()
        assert "deadline misses" in report

    def test_summary_folds_every_record_and_keeps_a_bounded_ring(self):
        n = 100_000
        rng = np.random.default_rng(19)
        paths = ["kdtree", "scan", "bitmap", "hybrid", "cache"]
        kinds = rng.integers(8, size=n).tolist()
        waits, execs, estimated, actual = rng.random((4, n)).tolist()
        counts = rng.integers(100, size=(3, n)).tolist()
        records = [
            QueryMetrics(
                query_id=i,
                session_id="s",
                queue_wait_s=waits[i],
                exec_time_s=execs[i],
                pages_read=counts[0][i],
                pages_skipped=counts[1][i],
                rows_returned=counts[2][i],
                cache_hit=kind == 1,
                chosen_path=paths[i % len(paths)],
                estimated_selectivity=estimated[i],
                actual_selectivity=actual[i] if kind != 2 else float("nan"),
                deadline_missed=kind == 3,
                error="boom" if kind in (3, 4) else "",
                fallback=kind == 5,
                storage_fault=kind == 4,
                shards_dispatched=i % 3,
                shards_pruned=counts[0][i] % 3,
                shard_faults=int(kind == 6),
                partial=kind == 6,
                shard_paths={"kdtree": 1, "scan": 2} if kind == 7 else {},
            )
            for i, kind in enumerate(kinds)
        ]
        registry = MetricsRegistry()
        for record in records:
            registry.record(record)
        registry.note_batch(4, 10, 3)

        done = [r for r in records if r.ok]
        waits = [r.queue_wait_s for r in records]
        execs = [r.exec_time_s for r in done]
        errors = [r.selectivity_error for r in done if r.selectivity_error == r.selectivity_error]
        expected = {
            "submitted": 0.0,
            "rejected": 0.0,
            "finished": float(len(records)),
            "completed": float(len(done)),
            "failed": float(sum(1 for r in records if r.error and not r.deadline_missed)),
            "deadline_misses": float(sum(1 for r in records if r.deadline_missed)),
            "cache_hits": float(sum(1 for r in records if r.cache_hit)),
            "cache_hit_rate": sum(1 for r in done if r.cache_hit) / len(done),
            "pages_read": float(sum(r.pages_read for r in done)),
            "pages_skipped": float(sum(r.pages_skipped for r in done)),
            "pages_prefetched": float(sum(r.pages_prefetched for r in done)),
            "rows_returned": float(sum(r.rows_returned for r in done)),
            "mean_queue_wait_s": sum(waits) / len(waits),
            "max_queue_wait_s": max(waits),
            "mean_exec_time_s": sum(execs) / len(execs),
            "max_exec_time_s": max(execs),
            **{
                f"{path}_queries": float(
                    sum((r.shard_paths or {r.chosen_path: 1}).get(path, 0) for r in done)
                )
                for path in ("kdtree", "scan", "bitmap", "hybrid")
            },
            "mean_selectivity_error": sum(errors) / len(errors),
            "max_selectivity_error": max(errors),
            "planner_fallbacks": float(sum(1 for r in done if r.fallback)),
            "storage_faults": float(sum(1 for r in records if r.storage_fault)),
            "shards_dispatched": float(sum(r.shards_dispatched for r in records)),
            "shards_pruned": float(sum(r.shards_pruned for r in records)),
            "shard_faults": float(sum(r.shard_faults for r in records)),
            "partial_results": float(sum(1 for r in records if r.partial)),
            "batches": 1.0,
            "batch_members": 4.0,
            "mean_batch_occupancy": 4.0,
            "batch_pages_decoded": 10.0,
            "shared_decode_hits": 3.0,
        }
        assert registry.summary() == expected
        recent = registry.per_query()
        assert len(recent) == 10_000
        assert [r.query_id for r in recent] == list(range(90_000, 100_000))

    def test_procedure_timings_surface(self):
        db = Database.in_memory()

        def slow(db_, pause):
            time.sleep(pause)
            return "done"

        db.procedures.register("spSlow", slow, "sleeps")
        assert db.procedures.call("spSlow", 0.01) == "done"
        assert db.procedures.call_count("spSlow") == 1
        assert db.procedures.total_time("spSlow") >= 0.01
        registry = MetricsRegistry()
        timings = registry.procedure_report(db.procedures)
        assert timings["spSlow"]["calls"] == 1
        assert timings["spSlow"]["total_time"] >= 0.01
        assert "spSlow" in registry.format_report(db.procedures)


class TestServiceBasics:
    def test_submit_requires_running(self, served):
        db, _, planner, workload = served
        service = QueryService(db, planner, workers=2)
        with pytest.raises(ServiceClosed):
            service.submit(workload.figure2_query().polyhedron(BANDS))

    def test_execute_and_cache_hit(self, served):
        db, _, planner, workload = served
        poly = workload.box_query(0.05).polyhedron(BANDS)
        with QueryService(db, planner, workers=2) as service:
            first = service.execute(poly, timeout=30)
            second = service.execute(poly, timeout=30)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.chosen_path == first.chosen_path  # cached plan preserved
        assert np.array_equal(
            np.sort(first.rows["_row_id"]), np.sort(second.rows["_row_id"])
        )
        (record,) = [
            r for r in service.metrics.per_query() if r.query_id == second.query_id
        ]
        assert record.pages_read == 0

    def test_sessionless_submits_share_one_session(self, served):
        db, _, planner, workload = served
        poly = workload.box_query(0.01).polyhedron(BANDS)
        with QueryService(db, planner, workers=2, queue_depth=1024) as service:
            tickets = [service.submit(poly) for _ in range(1000)]
            outcomes = [ticket.result(timeout=60) for ticket in tickets]
            assert len(service.sessions) <= 1
            assert len({outcome.session_id for outcome in outcomes}) == 1
            (stats,) = service.report()["sessions"].values()
        assert stats["submitted"] == stats["completed"] == 1000

    def test_admission_rejection_counts(self, served):
        db, _, planner, workload = served
        poly = workload.box_query(0.02).polyhedron(BANDS)
        service = QueryService(db, planner, workers=1, queue_depth=1)
        # Not started: the queue fills and then rejects, without racing workers.
        service._running = True
        session = service.open_session("greedy")
        service.submit(poly, session=session)
        with pytest.raises(AdmissionRejected):
            service.submit(poly, session=session)
        assert session.snapshot().rejected == 1
        assert service.metrics.summary()["rejected"] == 1
        service._running = False

    def test_drop_table_invalidates_cache(self, served):
        sample = sdss_color_sample(2000, seed=9)
        db = Database.in_memory()
        index = KdTreeIndex.build(db, "mag_drop", sample.columns(), BANDS)
        planner = QueryPlanner(index, seed=9)
        workload = QueryWorkload(sample.magnitudes, seed=9)
        poly = workload.box_query(0.05).polyhedron(BANDS)
        with QueryService(db, planner, workers=1) as service:
            service.execute(poly, timeout=30)
            assert len(service.cache) == 1
            db.drop_table("mag_drop")
            assert len(service.cache) == 0
            assert service.cache.invalidations == 1


class TestThreadSafety:
    def test_buffer_pool_counters_exact_under_concurrency(self, served):
        sample = sdss_color_sample(3000, seed=5)
        db = Database.in_memory(buffer_pages=8)  # small pool: constant eviction
        table = db.create_table("hammer", sample.columns(), rows_per_page=64)
        db.reset_io_stats()
        gets_per_thread = 400
        num_threads = 8
        rng = np.random.default_rng(5)
        page_lists = [
            rng.integers(0, table.num_pages, gets_per_thread) for _ in range(num_threads)
        ]
        errors = []

        def hammer(pages):
            try:
                for page_id in pages:
                    table.read_page(int(page_id))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(pages,)) for pages in page_lists
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = db.io_stats
        total = gets_per_thread * num_threads
        # No dropped increments: every get is exactly one hit or one miss,
        # and every miss is exactly one page read.
        assert stats.cache_hits + stats.cache_misses == total
        assert stats.page_reads == stats.cache_misses

    def test_box_split_clamps_epsilon_overshoot(self):
        # The seed failure: frac=1.0 over near-duplicate coordinates can
        # compute a cut epsilon beyond hi; split must clamp, not raise.
        box = Box(np.array([0.1]), np.array([0.1 + 1e-16]))
        value = box.lo[0] + 1.0 * (box.hi[0] - box.lo[0])
        low, high = box.split(0, value + 1e-12)
        assert low.hi[0] <= box.hi[0]
        assert high.lo[0] >= box.lo[0]
        with pytest.raises(ValueError):
            box.split(0, float("nan"))
