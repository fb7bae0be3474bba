"""Fault sweeps: every injection site either recovers or fails structurally.

The invariant under test, from ISSUE acceptance: under injected storage
faults a query may (a) succeed with exactly the fault-free answer, after
retries and/or a planner fallback, or (b) fail with a structured error
(:class:`~repro.service.errors.QueryFault` through the service,
:class:`~repro.db.errors.StorageFault` at the engine) -- but it must
never return a wrong answer and never hang or kill a worker.
"""

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    KdPartitioner,
    KdTreeIndex,
    LoggedStorage,
    Polyhedron,
    QueryPlanner,
    WriteFault,
    attach_database,
    build_shard,
    merge_table,
    save_catalog,
)
from repro.core.kdpaged import PagedKdTree
from repro.core.queries import polyhedron_full_scan
from repro.db import CorruptPageError, FaultInjector, FaultyStorage, MemoryStorage
from repro.db.histogram import HistogramStatistics
from repro.db.storage import FileStorage, index_namespace
from repro.service import DeadlineExceeded, QueryFault, QueryService, rows_equal

from .faultutil import BANDS, build_kd_setup, fault_free_ground_truth, make_faulty_db

pytestmark = pytest.mark.faultsweep


class TestTransientReadFaults:
    def test_rate_faults_recovered_by_retries(self):
        setup = build_kd_setup(seed=7)
        queries = setup.workload.mixed(8, selectivities=[0.01, 0.05, 0.2])
        polyhedra = [q.polyhedron(BANDS) for q in queries]
        truth = fault_free_ground_truth(setup, polyhedra)

        setup.injector.configure(read_fault_rate=0.1)
        setup.db.cold_cache()
        for idx, polyhedron in enumerate(polyhedra):
            planned = setup.planner.execute(polyhedron)
            assert rows_equal(planned.rows, truth[idx]), f"query {idx} diverged"

        # Faults actually fired and retries actually absorbed them.
        assert setup.injector.counters()["reads_failed"] > 0
        io = setup.db.io_stats.as_dict()
        assert io["read_faults"] > 0
        assert io["read_retries"] > 0

    def test_burst_fails_probe_and_degrades_to_scan(self):
        setup = build_kd_setup(seed=7)
        polyhedron = setup.workload.mixed(1, selectivities=[0.05])[0].polyhedron(BANDS)
        truth = fault_free_ground_truth(setup, [polyhedron])[0]

        # The ground-truth run warmed ``setup.planner``'s probe-sample
        # cache; a fresh planner pays the probe I/O again, which is the
        # path this burst must land on.
        planner = QueryPlanner(setup.index, seed=7)

        # 8 failed attempts: the probe's coalesced prefetch dies
        # (attempts 1-4), its first page-at-a-time read dies (5-8), and
        # the scan fallback then runs against healthy storage.
        setup.db.cold_cache()
        setup.injector.fail_next_reads(8)
        planned = planner.execute(polyhedron)

        assert planned.fallback
        assert "probe" in planned.fallback_reason
        assert planned.chosen_path == "scan"
        assert rows_equal(planned.rows, truth)

    def test_burst_fails_kdtree_path_and_degrades_to_scan(self):
        # A histogram-statistics planner probes with zero I/O, so the
        # burst lands on the kd traversal itself, not the probe.
        setup = build_kd_setup(seed=7)
        statistics = HistogramStatistics(setup.index.table, BANDS)
        planner = QueryPlanner(setup.index, seed=7, statistics=statistics)
        polyhedron = setup.workload.mixed(1, selectivities=[0.05])[0].polyhedron(BANDS)
        truth = planner.execute(polyhedron)
        assert not truth.fallback and truth.chosen_path == "kdtree"

        setup.db.cold_cache()
        # 12 = the pool's 4 attempts spent abandoning the read-ahead
        # batch + its 4 attempts times the scan layer's 2 on the
        # page-at-a-time path: exactly enough to exhaust every budget on
        # the first leaf read.
        setup.injector.fail_next_reads(12)
        planned = planner.execute(polyhedron)

        assert planned.fallback
        assert "kdtree" in planned.fallback_reason
        assert planned.chosen_path == "scan"
        assert rows_equal(planned.rows, truth.rows)


class TestCorruption:
    def test_occasional_corruption_recovered_by_reread(self):
        setup = build_kd_setup(seed=5)
        queries = setup.workload.mixed(6, selectivities=[0.01, 0.2])
        polyhedra = [q.polyhedron(BANDS) for q in queries]
        truth = fault_free_ground_truth(setup, polyhedra)

        setup.injector.configure(corrupt_rate=0.2)
        setup.db.cold_cache()
        for idx, polyhedron in enumerate(polyhedra):
            planned = setup.planner.execute(polyhedron)
            assert rows_equal(planned.rows, truth[idx]), f"query {idx} diverged"
        assert setup.injector.counters()["pages_corrupted"] > 0

    def test_persistent_corruption_is_a_structured_error_not_a_wrong_answer(self):
        setup = build_kd_setup(seed=5)
        polyhedron = setup.workload.mixed(1, selectivities=[0.05])[0].polyhedron(BANDS)
        truth = fault_free_ground_truth(setup, [polyhedron])[0]

        service = QueryService(setup.db, setup.planner, workers=2, cache_entries=0)
        with service:
            setup.injector.configure(corrupt_rate=1.0)
            setup.db.cold_cache()
            with pytest.raises(QueryFault) as excinfo:
                service.execute(polyhedron, timeout=60)
            assert excinfo.value.cause_type == "CorruptPageError"
            assert isinstance(excinfo.value.__cause__, CorruptPageError)

            # The failure was recorded, the workers survived, and the
            # service answers correctly once the storage heals (injected
            # corruption is read-side only; nothing durable was harmed).
            assert service.alive_workers == 2
            assert service.metrics.summary()["storage_faults"] >= 1
            setup.injector.quiesce()
            outcome = service.execute(polyhedron, timeout=60)
            assert rows_equal(outcome.rows, truth)


class TestIndexPageFaults:
    """Faults scoped to the paged kd-tree's node pages.

    The injector's namespace filter confines every fault to
    ``__kdindex__/...``, so any wrong answer or unstructured failure
    here is the index read path's doing -- data pages never fail.
    """

    def test_transient_index_faults_recovered_by_retries(self):
        from repro.db.storage import INDEX_NAMESPACE_PREFIX

        setup = build_kd_setup(seed=11)
        assert setup.index.tree.layout is not None  # actually paged
        statistics = HistogramStatistics(setup.index.table, BANDS)
        planner = QueryPlanner(setup.index, seed=11, statistics=statistics)
        queries = setup.workload.mixed(6, selectivities=[0.01, 0.05, 0.2])
        polyhedra = [q.polyhedron(BANDS) for q in queries]
        truth = [planner.execute(p).rows for p in polyhedra]

        # The tree at this scale is a single node page, so each cold
        # query rolls the dice only once -- a high rate and two passes
        # make this seed's deterministic sequence actually fire.
        setup.injector.configure(
            read_fault_rate=0.5, namespace_filter=INDEX_NAMESPACE_PREFIX
        )
        for idx, polyhedron in enumerate(polyhedra * 2):
            setup.db.cold_cache()  # node pages must be re-read every time
            planned = planner.execute(polyhedron)
            assert rows_equal(
                planned.rows, truth[idx % len(polyhedra)]
            ), f"query {idx} diverged"
        assert setup.injector.counters()["reads_failed"] > 0
        assert setup.db.io_stats.as_dict()["read_retries"] > 0

    def test_torn_index_pages_recovered_by_reread(self):
        from repro.db.storage import INDEX_NAMESPACE_PREFIX

        setup = build_kd_setup(seed=13)
        statistics = HistogramStatistics(setup.index.table, BANDS)
        planner = QueryPlanner(setup.index, seed=13, statistics=statistics)
        queries = setup.workload.mixed(5, selectivities=[0.01, 0.2])
        polyhedra = [q.polyhedron(BANDS) for q in queries]
        truth = [planner.execute(p).rows for p in polyhedra]

        setup.injector.configure(
            corrupt_rate=0.5, namespace_filter=INDEX_NAMESPACE_PREFIX
        )
        for idx, polyhedron in enumerate(polyhedra * 2):
            setup.db.cold_cache()
            planned = planner.execute(polyhedron)
            assert rows_equal(
                planned.rows, truth[idx % len(polyhedra)]
            ), f"query {idx} diverged"
        assert setup.injector.counters()["pages_corrupted"] > 0

    def test_index_outage_degrades_to_scan_and_heals(self):
        from repro.db.storage import INDEX_NAMESPACE_PREFIX

        setup = build_kd_setup(seed=17)
        statistics = HistogramStatistics(setup.index.table, BANDS)
        planner = QueryPlanner(setup.index, seed=17, statistics=statistics)
        polyhedron = setup.workload.mixed(1, selectivities=[0.05])[0].polyhedron(
            BANDS
        )
        truth = planner.execute(polyhedron)
        assert not truth.fallback and truth.chosen_path == "kdtree"

        # A persistent index-only outage: every node-page read fails
        # until further notice, data pages stay online.
        setup.db.cold_cache()
        setup.injector.fail_next_reads(
            1_000_000, namespace=INDEX_NAMESPACE_PREFIX
        )
        planned = planner.execute(polyhedron)
        assert planned.fallback
        assert "kdtree" in planned.fallback_reason
        assert planned.chosen_path == "scan"
        # The scan ran to completion *during* the outage -- proof the
        # burst never touched a data page -- and answered correctly.
        assert rows_equal(planned.rows, truth.rows)
        assert setup.injector.counters()["reads_failed"] >= 4

        # Storage heals: the kd path comes straight back.
        setup.injector.quiesce()
        setup.db.cold_cache()
        healed = planner.execute(polyhedron)
        assert not healed.fallback and healed.chosen_path == "kdtree"
        assert rows_equal(healed.rows, truth.rows)


class TestWriteFaults:
    def test_write_fault_aborts_build_and_rebuild_succeeds(self):
        db, injector = make_faulty_db(seed=2)
        data = {"a": np.arange(200.0)}

        injector.configure(write_fault_rate=1.0)
        with pytest.raises(WriteFault):
            db.create_table("t", dict(data), rows_per_page=64)

        injector.quiesce()
        db.drop_table("t")  # clear any partial pages
        table = db.create_table("t", dict(data), rows_per_page=64)
        assert np.array_equal(table.read_column("a"), data["a"])


class _InjectedFileStorage(FileStorage):
    """File-per-page storage whose writes roll an injector's dice first.

    A subclass rather than a :class:`FaultyStorage` wrapper so that
    :func:`save_catalog` still sees a file-backed database.
    """

    def __init__(self, root, injector: FaultInjector):
        super().__init__(root)
        self.injector = injector

    def write_page(self, namespace, page):
        self.injector.on_write_attempt(namespace, page.page_id)
        super().write_page(namespace, page)


_KD_DIMS = ["x", "y", "z"]


def _kd_rows(n: int, seed: int, first_oid: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    data = {d: rng.normal(0.0, 1.0, n) for d in _KD_DIMS}
    data["oid"] = np.arange(first_oid, first_oid + n, dtype=np.int64)
    return data


def _index_faults() -> FaultInjector:
    return FaultInjector(write_fault_rate=1.0, namespace_filter="__kdindex__")


def _assert_answers_like_scan(db) -> None:
    index = db.index("t.kdtree")
    assert isinstance(index.tree, PagedKdTree)
    for lo, hi in (([-0.5] * 3, [0.8] * 3), ([-9.0] * 3, [9.0] * 3)):
        poly = Polyhedron.from_box(Box(np.array(lo), np.array(hi)))
        rows, _ = index.query_polyhedron(poly)
        truth, _ = polyhedron_full_scan(db.table("t"), _KD_DIMS, poly)
        assert rows_equal(rows, truth)


class TestKdLoadWriteFaults:
    """A write fault during a clustered kd load raises and leaves nothing behind."""

    def test_faulted_merge_raises_and_the_next_merge_keeps_the_index(self, tmp_path):
        injector = FaultInjector()
        db = Database(_InjectedFileStorage(tmp_path, injector), buffer_pages=None)
        KdTreeIndex.build(db, "t", _kd_rows(4000, seed=1), _KD_DIMS, rows_per_page=128)
        table = db.table("t")
        table.insert_rows(_kd_rows(300, seed=2, first_oid=4000))
        table.delete_rows(np.arange(0, 4000, 97))
        live = table.num_live_rows

        injector.configure(write_fault_rate=1.0, namespace_filter="__kdindex__")
        with pytest.raises(WriteFault):
            merge_table(db, "t")
        assert injector.counters()["writes_failed"] >= 1
        assert db.ingest.state("t").generation == 0
        assert db.table("t") is table and table.num_live_rows == live
        for namespace in ("t@g1", index_namespace("t@g1")):
            assert db.storage.num_pages(namespace) == 0
            assert namespace not in db.buffer_pool.cached_namespaces()
        assert "t@g1" not in db.zone_map_names()
        _assert_answers_like_scan(db)  # main plus delta, as before the merge

        injector.quiesce()
        report = merge_table(db, "t")
        assert report.merged and report.generation == 1
        assert db.table("t").physical_name == "t@g1"
        _assert_answers_like_scan(db)

        save_catalog(db)
        reopened = attach_database(tmp_path)
        restored = reopened.index_if_exists("t.kdtree")
        assert restored is not None
        assert restored.tree.layout == db.index("t.kdtree").tree.layout
        _assert_answers_like_scan(reopened)

    def test_faulted_build_raises_and_leaves_nothing_behind(self):
        injector = _index_faults()
        db = Database(FaultyStorage(MemoryStorage(), injector), buffer_pages=None)
        data = _kd_rows(3000, seed=3)
        with pytest.raises(WriteFault):
            KdTreeIndex.build(db, "t", dict(data), _KD_DIMS)
        assert not db.has_table("t")
        assert db.index_if_exists("t.kdtree") is None
        for namespace in ("t", index_namespace("t")):
            assert db.storage.num_pages(namespace) == 0
            assert namespace not in db.buffer_pool.cached_namespaces()
        assert "t" not in db.zone_map_names()

        injector.quiesce()
        KdTreeIndex.build(db, "t", dict(data), _KD_DIMS)
        _assert_answers_like_scan(db)

    def test_build_shard_over_a_faulting_database_raises(self):
        injector = _index_faults()
        specs = KdPartitioner(2).plan("s", _kd_rows(2000, seed=4), _KD_DIMS)
        with pytest.raises(WriteFault):
            build_shard(
                specs[0],
                lambda _shard_id: Database(
                    FaultyStorage(MemoryStorage(), injector), buffer_pages=None
                ),
            )


class TestInjectedLatency:
    def test_latency_plus_deadline_fails_cleanly_without_hanging(self):
        setup = build_kd_setup(num_rows=2000, seed=9)
        polyhedron = setup.workload.mixed(1, selectivities=[0.2])[0].polyhedron(BANDS)

        service = QueryService(setup.db, setup.planner, workers=2, cache_entries=0)
        with service:
            setup.injector.configure(read_latency_s=0.005)
            setup.db.cold_cache()
            ticket = service.submit(polyhedron, deadline=0.02)
            with pytest.raises(DeadlineExceeded):
                # A bounded wait: a hung worker would raise TimeoutError
                # here instead, failing the test.
                ticket.result(timeout=30)
            assert service.alive_workers == 2

            # Without the stall the same query completes fine.
            setup.injector.quiesce()
            outcome = service.execute(polyhedron, timeout=60)
            assert outcome.rows["_row_id"] is not None
        assert service.metrics.summary()["deadline_misses"] == 1


class TestWalUnderFaults:
    @pytest.fixture()
    def logged_faulty_db(self):
        injector = FaultInjector(seed=3)
        logged = LoggedStorage(FaultyStorage(MemoryStorage(), injector))
        db = Database(logged, buffer_pages=None)
        db.create_table("t", {"a": np.arange(100.0)}, rows_per_page=50)
        return db, logged, injector

    def test_log_first_write_recovers_page_lost_to_write_fault(
        self, logged_faulty_db
    ):
        db, logged, injector = logged_faulty_db
        injector.configure(write_fault_rate=1.0)
        with pytest.raises(WriteFault):
            db.create_table("lost", {"b": np.arange(64.0)}, rows_per_page=64)
        injector.quiesce()

        # The inner backend never saw the page -- but the log did.
        assert logged.inner.num_pages("lost") == 0
        fresh = MemoryStorage()
        applied = logged.replay(fresh)
        assert applied == 3  # two pages of "t" plus the lost one
        assert fresh.num_pages("lost") == 1
        recovered = fresh.read_page("lost", 0)
        assert np.array_equal(recovered.columns["b"], np.arange(64.0))

    def test_replay_skips_torn_record_and_still_recovers_the_rest(
        self, logged_faulty_db, caplog
    ):
        db, logged, injector = logged_faulty_db
        injector.configure(write_fault_rate=1.0)
        with pytest.raises(WriteFault):
            db.create_table("lost", {"b": np.arange(64.0)}, rows_per_page=64)
        injector.quiesce()

        # Tear a mid-log record (a page of "t"), then crash-recover.
        raw = bytearray(logged.log._log[1])
        raw[-1] ^= 0xFF
        logged.log._log[1] = bytes(raw)
        fresh = MemoryStorage()
        with caplog.at_level("WARNING", logger="repro.db.recovery"):
            applied = logged.replay(fresh)
        assert applied == 2
        assert fresh.num_pages("lost") == 1
        assert any("checksum" in message for message in caplog.messages)
