"""Concurrent-correctness tests: replaying Figure 2 traffic at concurrency 8.

The acceptance bar of the serving layer: a workload slice replayed at 8
workers returns row-for-row identical results to serial execution, repeat
queries hit the result cache, per-query metrics are reported, and a tiny
deadline fails cleanly without killing workers.
"""

import numpy as np
import pytest

from repro import Database, KdTreeIndex, QueryPlanner, sdss_color_sample
from repro.datasets import QueryWorkload
from repro.service import (
    DeadlineExceeded,
    QueryService,
    replay_workload,
    rows_equal,
    run_serial,
)

BANDS = ["u", "g", "r", "i", "z"]

NUM_QUERIES = 240
NUM_UNIQUE = 80  # every unique query replayed 3x: plenty of cache traffic


@pytest.fixture(scope="module")
def setup():
    sample = sdss_color_sample(5000, seed=11)
    db = Database.in_memory(buffer_pages=1024)
    index = KdTreeIndex.build(db, "mag", sample.columns(), BANDS)
    planner = QueryPlanner(index, seed=11)
    workload = QueryWorkload(sample.magnitudes, seed=11)
    unique = workload.mixed(NUM_UNIQUE, selectivities=[0.001, 0.01, 0.05, 0.2, 0.5])
    polyhedra = [q.polyhedron(BANDS) for q in unique]
    queries = [polyhedra[i % NUM_UNIQUE] for i in range(NUM_QUERIES)]
    return db, planner, queries


class TestConcurrentReplay:
    def test_concurrency8_matches_serial_with_metrics_and_cache_hits(self, setup):
        db, planner, queries = setup
        serial = run_serial(planner, queries)

        service = QueryService(db, planner, workers=8, queue_depth=32)
        with service:
            report = replay_workload(service, queries, concurrency=8)

        assert report.errors == []
        assert report.completed == NUM_QUERIES

        # Row-for-row identical to serial execution, for every query.
        for idx, rows in enumerate(serial):
            assert rows_equal(report.rows(idx), rows), f"query {idx} diverged"

        # Per-query metrics: queue wait, exec time, pages, planner choice.
        records = service.metrics.per_query()
        assert len(records) == NUM_QUERIES
        for record in records:
            assert record.queue_wait_s >= 0.0
            assert record.exec_time_s >= 0.0
            assert record.chosen_path in ("kdtree", "scan", "cache")
            if not record.cache_hit:
                assert record.pages_read > 0

        # Repeat queries hit the result cache.
        summary = report.report["service"]
        assert summary["cache_hits"] > 0
        assert summary["cache_hit_rate"] > 0.0
        assert report.report["cache"]["hit_rate"] > 0.0

        # Session accounting covers every submission.
        session_stats = report.report["sessions"].values()
        assert sum(s["submitted"] for s in session_stats) == NUM_QUERIES
        assert sum(s["completed"] for s in session_stats) == NUM_QUERIES

    def test_tiny_deadline_fails_cleanly_and_service_keeps_serving(self, setup):
        db, planner, queries = setup
        service = QueryService(db, planner, workers=4, queue_depth=32)
        doomed = queries[:16]
        with service:
            report = replay_workload(
                service, doomed, concurrency=4, deadline=1e-9
            )
            # Every doomed query missed its deadline; none crashed a worker.
            assert report.completed == 0
            assert len(report.errors) == len(doomed)
            assert all(
                isinstance(exc, DeadlineExceeded) for _, exc in report.errors
            )
            assert service.alive_workers == 4

            # The service keeps serving normal queries afterwards.
            outcome = service.execute(queries[0], timeout=30)
            assert outcome.rows["_row_id"] is not None

        summary = service.metrics.summary()
        assert summary["deadline_misses"] == len(doomed)
        assert summary["completed"] >= 1

    def test_replay_applies_backpressure_not_loss(self, setup):
        db, planner, queries = setup
        # A deliberately tiny queue forces rejections; the driver retries
        # and still every query completes exactly once.
        service = QueryService(db, planner, workers=2, queue_depth=2)
        with service:
            report = replay_workload(service, queries[:60], concurrency=8)
        assert report.completed == 60
        assert report.errors == []
        admission = report.report["admission"]
        assert admission["admitted"] == 60
        assert admission["high_water"] <= 2

    def test_replays_close_their_sessions(self, setup):
        db, planner, queries = setup
        service = QueryService(db, planner, workers=2, queue_depth=32)
        with service:
            before = len(service.sessions)
            for _ in range(50):
                report = replay_workload(service, queries[:4], concurrency=8)
                assert report.completed == 4
            assert len(service.sessions) == before
        # The last report was taken while its clients' sessions were open.
        assert sum(s["submitted"] for s in report.report["sessions"].values()) == 4

    def test_serial_service_matches_direct_planner(self, setup):
        db, planner, queries = setup
        subset = queries[:10]
        expected = run_serial(planner, subset)
        with QueryService(db, planner, workers=1, cache_entries=0) as service:
            for idx, poly in enumerate(subset):
                outcome = service.execute(poly, timeout=30)
                assert rows_equal(outcome.rows, expected[idx])
        assert service.cache is None  # caching disabled end to end


class TestRowsEqual:
    def test_detects_equal_and_unequal(self):
        a = {"_row_id": np.array([2, 1]), "u": np.array([20.0, 10.0])}
        b = {"_row_id": np.array([1, 2]), "u": np.array([10.0, 20.0])}
        assert rows_equal(a, b)
        c = {"_row_id": np.array([1, 2]), "u": np.array([10.0, 99.0])}
        assert not rows_equal(a, c)
        d = {"_row_id": np.array([1]), "u": np.array([10.0])}
        assert not rows_equal(a, d)
