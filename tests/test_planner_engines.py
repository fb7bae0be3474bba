"""Differential and decision tests of the cost-based multi-engine planner.

Row identity first: on random box/membership mixes the bitmap engine,
the kd-tree, the hybrid prefilter, and the zone-map scan must return
exactly the same rows -- solo, batched, sharded over both transports,
under injected faults, and under ingest churn.  Then the decisions: the
cost model must pick the bitmap on high-selectivity few-dimension
queries and the baseline paths at the extremes, and the forced-engine
knob must override it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Database,
    KdPartitioner,
    KdTreeIndex,
    QueryPlanner,
    ScatterGatherExecutor,
    sdss_color_sample,
)
from repro.bitmap import BitmapIndex
from repro.core.queries import polyhedron_full_scan
from repro.datasets import QueryWorkload
from repro.db import (
    Col,
    FaultInjector,
    FaultyStorage,
    LinearExtractionError,
    MemoryStorage,
    RetryPolicy,
    expression_to_query,
)
from repro.db.persistence import attach_database, save_catalog
from repro.geometry.halfspace import Halfspace, Polyhedron

BANDS = ["u", "g", "r", "i", "z"]
ENGINES = ("auto", "kd", "scan", "bitmap", "hybrid")


def _box(lo, hi) -> Polyhedron:
    halfspaces = []
    for axis, (low, high) in enumerate(zip(lo, hi)):
        e = np.zeros(len(lo))
        e[axis] = 1.0
        halfspaces.append(Halfspace(e, float(high)))
        halfspaces.append(Halfspace(-e, -float(low)))
    return Polyhedron(halfspaces)


def _sample_columns(n: int, seed: int) -> tuple:
    sample = sdss_color_sample(n, seed=seed)
    columns = dict(sample.columns())
    columns["oid"] = np.arange(n, dtype=np.float64)
    return sample, columns


def _query_mix(sample, seed: int, count: int = 12) -> list[Polyhedron]:
    workload = QueryWorkload(sample.magnitudes, seed=seed)
    queries = workload.mixed(count, selectivities=[0.001, 0.01, 0.1, 0.4])
    return [q.polyhedron(BANDS) for q in queries]


def _membership_mix(columns, seed: int, count: int) -> list[dict | None]:
    rng = np.random.default_rng(seed)
    n = len(columns["oid"])
    filters: list[dict | None] = []
    for i in range(count):
        if i % 3 == 0:
            filters.append(None)
        elif i % 3 == 1:
            filters.append(
                {"oid": rng.choice(n, size=max(1, n // 10), replace=False).astype(float)}
            )
        else:
            filters.append(
                {"u": rng.choice(np.asarray(columns["u"]), size=50, replace=False)}
            )
    return filters


def oid_set(rows: dict) -> set:
    return set(float(v) for v in rows["oid"])


@pytest.fixture(scope="module")
def engine_setup():
    sample, columns = _sample_columns(6000, seed=21)
    db = Database.in_memory(buffer_pages=None)
    index = KdTreeIndex.build(db, "mag", dict(columns), BANDS)
    BitmapIndex.build(db, "mag", BANDS)
    return sample, columns, db, index


class TestSoloDifferential:
    def test_all_engines_agree_on_box_membership_mixes(self, engine_setup):
        sample, columns, db, index = engine_setup
        polyhedra = _query_mix(sample, seed=22)
        filters = _membership_mix(columns, seed=23, count=len(polyhedra))
        planners = {
            engine: QueryPlanner(index, seed=9, engine=engine)
            for engine in ENGINES
        }
        for poly, member in zip(polyhedra, filters):
            reference, _ = polyhedron_full_scan(
                db.table("mag"), BANDS, poly, memberships=member
            )
            expected = oid_set(reference)
            for engine, planner in planners.items():
                planned = planner.execute(poly, memberships=member)
                assert oid_set(planned.rows) == expected, (
                    f"{engine} diverged on {poly!r}"
                )

    def test_forced_engines_report_their_path(self, engine_setup):
        sample, columns, db, index = engine_setup
        poly = _query_mix(sample, seed=24, count=1)[0]
        for engine, expected_path in (
            ("kd", "kdtree"),
            ("scan", "scan"),
            ("bitmap", "bitmap"),
            ("hybrid", "hybrid"),
        ):
            planner = QueryPlanner(index, seed=9, engine=engine)
            planned = planner.execute(poly)
            assert planned.chosen_path == expected_path

    def test_forced_bitmap_without_index_degrades(self):
        sample, columns = _sample_columns(1500, seed=25)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "nobitmap", dict(columns), BANDS)
        planner = QueryPlanner(index, seed=9, engine="bitmap")
        poly = _query_mix(sample, seed=26, count=1)[0]
        planned = planner.execute(poly)
        reference, _ = polyhedron_full_scan(db.table("nobitmap"), BANDS, poly)
        assert oid_set(planned.rows) == oid_set(reference)
        assert planned.fallback
        assert "bitmap" in planned.fallback_reason

    def test_unknown_engine_rejected(self, engine_setup):
        _, _, _, index = engine_setup
        with pytest.raises(ValueError):
            QueryPlanner(index, engine="quantum")


class TestBatchedDifferential:
    def test_batch_members_match_solo_across_engines(self, engine_setup):
        sample, columns, db, index = engine_setup
        polyhedra = _query_mix(sample, seed=27, count=8)
        filters = _membership_mix(columns, seed=28, count=len(polyhedra))
        for engine in ENGINES:
            planner = QueryPlanner(index, seed=9, engine=engine)
            batch = planner.execute_batch(polyhedra, memberships_list=filters)
            for poly, member, member_result in zip(
                polyhedra, filters, batch.members
            ):
                assert member_result.error is None
                reference, _ = polyhedron_full_scan(
                    db.table("mag"), BANDS, poly, memberships=member
                )
                assert oid_set(member_result.planned.rows) == oid_set(reference)

    def test_auto_batch_can_split_members_across_engines(self, engine_setup):
        sample, columns, db, index = engine_setup
        # One needle (bitmap territory) and one haystack (scan territory).
        needle = _box([0.02, 0.05, -9, -9, -9], [0.06, 0.09, 9, 9, 9])
        haystack = _box([-9] * 5, [9] * 5)
        planner = QueryPlanner(index, seed=9)
        batch = planner.execute_batch([needle, haystack])
        paths = {m.planned.chosen_path for m in batch.members}
        for poly, member_result in zip([needle, haystack], batch.members):
            reference, _ = polyhedron_full_scan(db.table("mag"), BANDS, poly)
            assert oid_set(member_result.planned.rows) == oid_set(reference)
        assert len(paths) >= 1  # decisions are per member, not per batch


class TestShardedDifferential:
    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_sharded_engines_match_scan(self, transport):
        sample, columns = _sample_columns(4000, seed=31)
        polyhedra = _query_mix(sample, seed=32, count=6)
        filters = _membership_mix(columns, seed=33, count=len(polyhedra))
        reference_db = Database.in_memory(buffer_pages=None)
        reference_db.create_table("ref", dict(columns))
        partitioner = KdPartitioner(4, buffer_pages=None)
        if transport == "process":
            specs = partitioner.plan("mag_sh", dict(columns), BANDS)
            executor = ScatterGatherExecutor(
                specs=specs, transport="process", engine="auto"
            )
        else:
            shard_set = partitioner.partition("mag_sh", dict(columns), BANDS)
            executor = ScatterGatherExecutor(shard_set, engine="auto")
        try:
            for poly, member in zip(polyhedra, filters):
                reference, _ = polyhedron_full_scan(
                    reference_db.table("ref"), BANDS, poly, memberships=member
                )
                planned = executor.execute(poly, memberships=member)
                assert oid_set(planned.rows) == oid_set(reference)
            batch = executor.execute_batch(polyhedra, memberships_list=filters)
            for poly, member, member_result in zip(
                polyhedra, filters, batch.members
            ):
                assert member_result.error is None
                reference, _ = polyhedron_full_scan(
                    reference_db.table("ref"), BANDS, poly, memberships=member
                )
                assert oid_set(member_result.planned.rows) == oid_set(reference)
        finally:
            executor.close()

    def test_sharded_bitmap_engine_survives_faults(self):
        sample, columns = _sample_columns(3000, seed=34)
        polyhedra = _query_mix(sample, seed=35, count=5)
        injector = FaultInjector(seed=36)
        retry = RetryPolicy(attempts=8, backoff_s=0.0)

        def factory(shard_id: int) -> Database:
            return Database(
                FaultyStorage(MemoryStorage(), injector),
                buffer_pages=16,
                retry=retry,
            )

        reference_db = Database.in_memory(buffer_pages=None)
        reference_db.create_table("ref", dict(columns))
        references = [
            oid_set(polyhedron_full_scan(reference_db.table("ref"), BANDS, p)[0])
            for p in polyhedra
        ]
        shard_set = KdPartitioner(4, database_factory=factory).partition(
            "mag_flt", dict(columns), BANDS
        )
        executor = ScatterGatherExecutor(shard_set, engine="auto")
        try:
            injector.configure(read_fault_rate=0.05)
            for poly, expected in zip(polyhedra, references):
                planned = executor.execute(poly)
                assert not planned.partial
                assert oid_set(planned.rows) == expected
        finally:
            injector.quiesce()
            executor.close()


class TestChurnDifferential:
    def test_engines_agree_through_ingest_and_merge(self):
        from repro.ingest.merge import merge_table

        sample, columns = _sample_columns(2500, seed=41)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "churn", dict(columns), BANDS)
        BitmapIndex.build(db, "churn", BANDS)
        planners = {
            engine: QueryPlanner(index, seed=9, engine=engine)
            for engine in ENGINES
        }
        poly = _query_mix(sample, seed=42, count=1)[0]
        rng = np.random.default_rng(43)
        next_oid = float(len(columns["oid"]))
        for round_idx in range(3):
            fresh = {
                name: np.zeros(40, dtype=np.asarray(values).dtype)
                for name, values in columns.items()
            }
            for band in BANDS:
                fresh[band] = rng.normal(
                    loc=np.mean(np.asarray(columns[band])), scale=0.2, size=40
                )
            fresh["oid"] = np.arange(next_oid, next_oid + 40)
            fresh["kd_leaf"] = np.zeros(40)
            next_oid += 40
            db.ingest.insert("churn", fresh)
            if round_idx == 1:
                db.ingest.delete("churn", np.arange(5, dtype=np.int64))
            reference, _ = polyhedron_full_scan(db.table("churn"), BANDS, poly)
            expected = oid_set(reference)
            for engine, planner in planners.items():
                planned = planner.execute(poly)
                assert oid_set(planned.rows) == expected, (
                    f"{engine} diverged after round {round_idx}"
                )
            merge_table(db, "churn")
            reference, _ = polyhedron_full_scan(db.table("churn"), BANDS, poly)
            expected = oid_set(reference)
            for engine, planner in planners.items():
                planned = planner.execute(poly)
                assert oid_set(planned.rows) == expected, (
                    f"{engine} diverged after merge {round_idx}"
                )


class TestCostModelDecisions:
    """Pin the planner's choices at the selectivity extremes."""

    @pytest.fixture(scope="class")
    def pin_setup(self):
        # Large pages-per-leaf ratio: kd leaves span several pages, so a
        # narrow slab leaves the bitmap far ahead on pages decoded.
        rng = np.random.default_rng(51)
        n = 20_000
        data = {c: rng.normal(size=n) for c in ("x", "y", "z")}
        data["oid"] = np.arange(n, dtype=np.float64)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(
            db, "pin", data, ["x", "y", "z"], num_levels=4, rows_per_page=64
        )
        BitmapIndex.build(db, "pin", ["x", "y", "z"], num_bins=64)
        return db, index

    def test_high_selectivity_two_dims_picks_bitmap(self, pin_setup):
        db, index = pin_setup
        planner = QueryPlanner(index, seed=9)
        slab = _box([2.0, 2.0, -9.0], [9.0, 9.0, 9.0])
        planned = planner.execute(slab)
        assert planned.chosen_path in ("bitmap", "hybrid")
        assert planned.stats.extra["cost_bitmap"] < planned.stats.extra["cost_scan"]
        assert planned.stats.extra["cost_bitmap"] < planned.stats.extra["cost_kdtree"]

    def test_low_selectivity_stays_on_scan(self, pin_setup):
        db, index = pin_setup
        planner = QueryPlanner(index, seed=9)
        everything = _box([-9.0] * 3, [9.0] * 3)
        planned = planner.execute(everything)
        assert planned.chosen_path == "scan"

    def test_mid_selectivity_without_bitmap_keeps_paper_rule(self):
        rng = np.random.default_rng(52)
        n = 5000
        data = {c: rng.normal(size=n) for c in ("x", "y")}
        data["oid"] = np.arange(n, dtype=np.float64)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "plain", data, ["x", "y"])
        planner = QueryPlanner(index, seed=9)
        narrow = _box([-0.1, -0.1], [0.1, 0.1])
        assert planner.execute(narrow).chosen_path == "kdtree"
        wide = _box([-9.0, -9.0], [9.0, 9.0])
        assert planner.execute(wide).chosen_path == "scan"

    def test_calibration_report_moves_with_observations(self, pin_setup):
        db, index = pin_setup
        planner = QueryPlanner(index, seed=9)
        before = planner.cost_report()
        assert before["observations"] == 0
        for _ in range(4):
            planner.execute(_box([1.0, -9.0, -9.0], [9.0, 9.0, 9.0]))
        after = planner.cost_report()
        assert after["observations"] >= 4
        assert set(after["calibration"]) == {"kdtree", "scan", "bitmap", "hybrid"}


class TestExpressionMemberships:
    def test_expression_to_query_splits_box_and_in_list(self):
        expr = (Col("u") < 0.5) & (Col("u") > -0.5) & Col("oid").isin([1, 5, 9])
        poly, memberships = expression_to_query(expr, ["u", "g"])
        assert set(memberships) == {"oid"}
        assert np.array_equal(memberships["oid"], [1.0, 5.0, 9.0])
        assert poly.dim == 2

    def test_membership_only_expression_yields_trivial_polyhedron(self):
        poly, memberships = expression_to_query(
            Col("oid").isin([3.0, 4.0]), ["u", "g"]
        )
        points = np.array([[100.0, -100.0], [-5.0, 5.0]])
        assert poly.contains_points(points).all()
        assert np.array_equal(memberships["oid"], [3.0, 4.0])

    def test_repeated_in_lists_intersect(self):
        expr = Col("oid").isin([1, 2, 3]) & Col("oid").isin([2, 3, 4])
        _, memberships = expression_to_query(expr, ["u"])
        assert np.array_equal(memberships["oid"], [2.0, 3.0])

    def test_in_list_over_computed_expression_rejected(self):
        with pytest.raises(LinearExtractionError):
            expression_to_query((Col("u") + Col("g")).isin([1.0]), ["u", "g"])

    def test_empty_in_list_rejected(self):
        with pytest.raises(ValueError):
            Col("oid").isin([])

    def test_expression_query_runs_through_every_engine(self, request):
        sample, columns = _sample_columns(2000, seed=61)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "exprq", dict(columns), BANDS)
        BitmapIndex.build(db, "exprq", BANDS)
        u = np.asarray(columns["u"])
        lo, hi = float(np.quantile(u, 0.3)), float(np.quantile(u, 0.7))
        expr = (
            (Col("u") < hi)
            & (Col("u") > lo)
            & Col("oid").isin(np.arange(0, 2000, 3, dtype=np.float64))
        )
        poly, memberships = expression_to_query(expr, BANDS)
        reference, _ = polyhedron_full_scan(
            db.table("exprq"), BANDS, poly, memberships=memberships
        )
        expected = oid_set(reference)
        assert expected  # the query must select something
        for engine in ENGINES:
            planner = QueryPlanner(index, seed=9, engine=engine)
            planned = planner.execute(poly, memberships=memberships)
            assert oid_set(planned.rows) == expected


def _columns(rows: int, seed: int = 0):
    sample = sdss_color_sample(rows, seed=seed)
    columns = dict(sample.columns())
    columns["oid"] = np.arange(rows, dtype=np.int64)
    return sample, columns


def _mixed_queries(sample, count: int, seed: int = 0):
    workload = QueryWorkload(sample.magnitudes, seed=seed)
    base = workload.mixed(count, selectivities=[0.001, 0.01, 0.1, 0.4])
    return [q.polyhedron(BANDS) for q in base]


class TestCalibrationPersistence:
    def test_calibration_survives_catalog_reattach(self, tmp_path):
        sample, columns = _columns(1500, seed=21)
        db = Database.on_disk(tmp_path, buffer_pages=None)
        index = KdTreeIndex.build(db, "mags", columns, BANDS)
        BitmapIndex.build(db, "mags", BANDS)
        planner = QueryPlanner(index, seed=21)
        for polyhedron in _mixed_queries(sample, 10, seed=21):
            planner.execute(polyhedron)
        warmed = planner.cost_report()
        assert warmed["observations"] > 0
        save_catalog(db)

        reopened = attach_database(tmp_path, buffer_pages=None)
        new_index = reopened.index("mags.kdtree")
        warm_planner = QueryPlanner(new_index, seed=21)
        report = warm_planner.cost_report()
        assert report["observations"] == warmed["observations"]
        assert report["calibration"] == pytest.approx(warmed["calibration"])
        assert report["selectivity_bias"] == pytest.approx(
            warmed["selectivity_bias"]
        )

    def test_live_databases_do_not_warm_new_planners(self):
        sample, columns = _columns(1200, seed=22)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "mags", columns, BANDS)
        planner = QueryPlanner(index, seed=22)
        for polyhedron in _mixed_queries(sample, 6, seed=22):
            planner.execute(polyhedron)
        assert planner.cost_report()["observations"] > 0
        # The snapshot is persisted for a future reattach, but a second
        # planner over the same live database starts neutral.
        fresh = QueryPlanner(index, seed=22)
        assert fresh.cost_report()["observations"] == 0
