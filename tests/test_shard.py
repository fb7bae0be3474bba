"""Sharded scatter-gather execution: partitioner, router, executor, k-NN.

Fast-tier coverage of the `repro.shard` subsystem: kd-subtree
partitioning invariants, shard-level Figure 4 pruning, scatter-gather
differential correctness against the single-index engine, frontier-
merged k-NN exactness, deadline propagation into shard workers, and
per-shard fault degradation to partial results.  The heavier randomized
sweeps live in test_differential.py under the ``faultsweep`` marker.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    FaultInjector,
    FaultyStorage,
    KdPartitioner,
    KdTreeIndex,
    Polyhedron,
    QueryPlanner,
    QueryService,
    ScatterGatherExecutor,
    StorageFault,
)
from repro.db.faults import RetryPolicy
from repro.db.storage import MemoryStorage
from repro.service.errors import DeadlineExceeded
from repro.service.result_cache import query_fingerprint
from repro.shard import ShardRouter
from repro.shard.coordinator import run_member_group

DIMS = ["x", "y", "z"]
NUM_ROWS = 4000


def _make_data(n: int = NUM_ROWS, seed: int = 17) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0], [0.5, 0.3, 0.6], size=(n // 2, 3)),
            rng.normal([3.0, 2.0, 1.0], [0.8, 0.5, 0.4], size=(n - n // 2, 3)),
        ]
    )
    data = {d: pts[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(n, dtype=np.int64)
    return data


def _oids(rows: dict) -> frozenset[int]:
    return frozenset(int(v) for v in rows["oid"])


@pytest.fixture(scope="module")
def shard_setup():
    """One dataset, a 4-way shard set, and an unsharded reference planner."""
    data = _make_data()
    shard_set = KdPartitioner(4, buffer_pages=None).partition("pts", data, DIMS)
    executor = ScatterGatherExecutor(shard_set)
    ref_db = Database.in_memory(buffer_pages=None)
    reference = QueryPlanner(KdTreeIndex.build(ref_db, "pts_ref", dict(data), DIMS))
    yield data, shard_set, executor, reference
    executor.close()


class TestKdPartitioner:
    def test_shards_are_disjoint_and_cover_the_table(self, shard_setup):
        data, shard_set, _, _ = shard_setup
        assert shard_set.num_shards == 4
        assert shard_set.total_rows == NUM_ROWS
        seen = np.concatenate([s.table.read_column("oid") for s in shard_set])
        assert sorted(seen.tolist()) == list(range(NUM_ROWS))

    def test_shards_are_balanced(self, shard_setup):
        # Median splits: any two shards differ by at most one row per level.
        _, shard_set, _, _ = shard_setup
        sizes = [s.num_rows for s in shard_set]
        assert max(sizes) - min(sizes) <= 2

    def test_row_offsets_are_cumulative(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        offset = 0
        for shard in shard_set:
            assert shard.row_offset == offset
            offset += shard.num_rows

    def test_every_row_lies_in_both_shard_boxes(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        for shard in shard_set:
            pts = np.column_stack([shard.table.read_column(d) for d in DIMS])
            for box in (shard.partition_box, shard.tight_box):
                assert np.all(pts >= box.lo - 1e-12)
                assert np.all(pts <= box.hi + 1e-12)

    def test_post_order_ranges_are_disjoint_and_ordered(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        ranges = [s.post_order_range for s in shard_set]
        for (lo_a, hi_a), (lo_b, hi_b) in zip(ranges, ranges[1:]):
            assert lo_a <= hi_a < lo_b <= hi_b

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            KdPartitioner(3)
        with pytest.raises(ValueError, match="power of two"):
            KdPartitioner(0)

    def test_too_few_rows_rejected(self):
        data = _make_data(4)
        with pytest.raises(ValueError, match="rows"):
            KdPartitioner(8).partition("tiny", data, DIMS)

    def test_layout_version_tracks_the_partitioning(self, shard_setup):
        data, shard_set, _, _ = shard_setup
        again = KdPartitioner(4, buffer_pages=None).partition("pts", data, DIMS)
        assert again.layout_version == shard_set.layout_version
        other = KdPartitioner(2, buffer_pages=None).partition("pts", data, DIMS)
        assert other.layout_version != shard_set.layout_version

    def test_gather_routes_global_ids_back(self, shard_setup):
        data, shard_set, _, _ = shard_setup
        rng = np.random.default_rng(1)
        ids = rng.choice(NUM_ROWS, size=100, replace=False)
        rows = shard_set.gather(ids)
        assert np.array_equal(rows["_row_id"], ids)
        # Every gathered row's coordinates match the shard it came from.
        for i, gid in enumerate(ids):
            shard = shard_set.shard_of_row(int(gid))
            local = shard.table.gather(
                np.array([gid - shard.row_offset], dtype=np.int64)
            )
            assert local["oid"][0] == rows["oid"][i]


class TestShardRouter:
    def test_selective_box_prunes_shards(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        router = ShardRouter(shard_set)
        # A small box near one cluster center cannot touch all four shards.
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.4))
        decision = router.route_polyhedron(poly)
        assert decision.shards_pruned > 0
        assert decision.shards_dispatched + decision.shards_pruned == 4

    def test_routing_never_drops_answer_rows(self, shard_setup):
        data, shard_set, executor, reference = shard_setup
        router = ShardRouter(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([3.0, 2.0, 1.0]), 1.0))
        decision = router.route_polyhedron(poly)
        dispatched = {s.shard_id for s, _ in decision.dispatched}
        expected = _oids(reference.execute(poly).rows)
        covered = set()
        for shard in shard_set:
            rows, _ = shard.index.query_polyhedron(poly)
            got = _oids(rows)
            if got:
                assert shard.shard_id in dispatched
            covered |= got
        assert covered == expected

    def test_partition_boxes_prune_no_worse_than_nothing(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        loose = ShardRouter(shard_set, use_tight_boxes=False)
        tight = ShardRouter(shard_set, use_tight_boxes=True)
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.6))
        assert (
            tight.route_polyhedron(poly).shards_pruned
            >= loose.route_polyhedron(poly).shards_pruned
        )

    def test_order_by_distance_starts_at_home_shard(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        router = ShardRouter(shard_set, use_tight_boxes=False)
        point = np.array([0.1, -0.2, 0.3])
        ordered = router.order_by_distance(point)
        bounds = [b for b, _ in ordered]
        assert bounds == sorted(bounds)
        assert bounds[0] == 0.0  # the partition boxes tile space


class TestScatterGatherDifferential:
    @pytest.mark.parametrize(
        "center,width",
        [
            ([0.0, 0.0, 0.0], 0.8),
            ([3.0, 2.0, 1.0], 1.5),
            ([1.5, 1.0, 0.5], 6.0),
            ([9.0, 9.0, 9.0], 0.5),  # empty
        ],
    )
    def test_box_queries_match_unsharded(self, shard_setup, center, width):
        _, _, executor, reference = shard_setup
        poly = Polyhedron.from_box(Box.cube(np.array(center, dtype=float), width))
        sharded = executor.execute(poly)
        expected = reference.execute(poly)
        assert _oids(sharded.rows) == _oids(expected.rows)
        assert sharded.shards_dispatched + sharded.shards_pruned == 4
        assert not sharded.partial

    def test_halfspace_query_matches_unsharded(self, shard_setup):
        _, _, executor, reference = shard_setup
        from repro.geometry.halfspace import Halfspace

        normal = np.array([1.0, -0.5, 0.25])
        normal /= np.linalg.norm(normal)
        poly = Polyhedron(
            [Halfspace(normal, 1.0), Halfspace(-normal, 0.5)]
        )
        sharded = executor.execute(poly)
        expected = reference.execute(poly)
        assert _oids(sharded.rows) == _oids(expected.rows)

    def test_global_row_ids_resolve_through_gather(self, shard_setup):
        _, _, executor, _ = shard_setup
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 1.0))
        planned = executor.execute(poly)
        fetched = executor.gather(planned.rows["_row_id"])
        assert np.array_equal(fetched["oid"], planned.rows["oid"])

    def test_selective_box_shows_pruning(self, shard_setup):
        _, _, executor, _ = shard_setup
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.4))
        planned = executor.execute(poly)
        assert planned.shards_pruned > 0

    def test_stats_aggregate_across_shards(self, shard_setup):
        _, _, executor, _ = shard_setup
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0))
        planned = executor.execute(poly)
        assert planned.stats.rows_returned == len(planned.rows["_row_id"])
        assert planned.stats.pages_touched > 0
        assert sum(
            v for k, v in planned.stats.extra.items() if k.startswith("shard_path_")
        ) == planned.shards_dispatched


class TestScatterGatherKnn:
    def test_knn_matches_brute_force(self, shard_setup):
        data, shard_set, executor, _ = shard_setup
        pts = np.column_stack([data[d] for d in DIMS])
        rng = np.random.default_rng(23)
        for _ in range(5):
            point = rng.uniform([-1, -1, -1], [4, 3, 2])
            k = int(rng.integers(1, 25))
            result = executor.knn(point, k)
            dist = np.sqrt(((pts - point) ** 2).sum(axis=1))
            order = np.argsort(dist, kind="stable")[:k]
            expected_oids = set(data["oid"][order].tolist())
            got_oids = set(
                shard_set.gather(result.row_ids)["oid"].tolist()
            )
            assert got_oids == expected_oids
            assert np.allclose(result.distances, dist[order])
            assert not result.partial

    def test_knn_prunes_far_shards(self, shard_setup):
        data, _, executor, _ = shard_setup
        # Deep inside one cluster, tiny k: distant shards cannot compete.
        result = executor.knn(np.array([0.0, 0.0, 0.0]), 3)
        assert result.shards_pruned > 0
        assert result.shards_dispatched + result.shards_pruned == 4

    def test_k_larger_than_table_returns_everything(self, shard_setup):
        _, shard_set, executor, _ = shard_setup
        result = executor.knn(np.zeros(3), NUM_ROWS + 10)
        assert result.k == NUM_ROWS
        assert np.all(np.diff(result.distances) >= 0)

    def test_invalid_k_rejected(self, shard_setup):
        _, _, executor, _ = shard_setup
        with pytest.raises(ValueError):
            executor.knn(np.zeros(3), 0)


class TestCancellation:
    def test_expired_deadline_stops_knn(self, shard_setup):
        _, _, executor, _ = shard_setup

        def expired():
            raise DeadlineExceeded("budget spent")

        with pytest.raises(DeadlineExceeded):
            executor.knn(np.zeros(3), 5, cancel_check=expired)

    def test_gather_polls_an_answered_member_until_it_ends(self):
        """Every gather step polls every live member, answered or not.

        The stub transport queues each member's answer and the shard's
        trailer before ``_send_group`` returns, and never runs a member's
        check, so the coordinator's polls are the only calls.  The doomed
        member is answered by the first shard at the first gather step;
        the gather then takes three more steps (that shard's trailer, the
        other shard's answer and trailer), and the check's 4th call still
        fails the member.
        """

        class QueuedTransport(ScatterGatherExecutor):
            def _send_group(self, shard_id, group, out):
                ids = [m for m, *_ in group]
                trailer = run_member_group(
                    self.shard_set[shard_id].table,
                    self.planners[shard_id],
                    [(polyhedron, None, memberships) for _, polyhedron, _, memberships in group],
                    lambda i, outcome: out.put((shard_id, ids[i], outcome)),
                )
                out.put((shard_id, None, trailer))
                return {m: threading.Event() for m in ids}

        calls = {"n": 0}

        def check():
            calls["n"] += 1
            if calls["n"] > 3:
                raise DeadlineExceeded("budget spent")

        shard_set = KdPartitioner(2, buffer_pages=None).partition("polls", _make_data(), DIMS)
        queries = [
            Polyhedron.from_box(Box.cube(np.array(center), 0.5))
            for center in ([0.0, 0.0, 0.0], [3.0, 2.0, 1.0])
        ]
        with QueuedTransport(shard_set) as engine:
            dispatched = [
                [shard.shard_id for shard, _ in engine.router.route_polyhedron(q).dispatched]
                for q in queries
            ]
            assert len(dispatched[0]) == len(dispatched[1]) == 1
            assert dispatched[0] != dispatched[1]
            result = engine.execute_batch(queries, [check, None])
        assert calls["n"] == 4
        assert isinstance(result.members[0].error, DeadlineExceeded)
        assert result.members[1].error is None


def _faulty_shard_setup(fault_shard: int = 0):
    """A 4-way shard set where one shard's storage can be made to fail."""
    data = _make_data(seed=29)
    injector = FaultInjector(seed=5)
    fast_retry = RetryPolicy(attempts=2, backoff_s=0.0)

    def factory(shard_id: int) -> Database:
        if shard_id == fault_shard:
            return Database(
                FaultyStorage(MemoryStorage(), injector),
                buffer_pages=None,
                retry=fast_retry,
            )
        return Database.in_memory(buffer_pages=None)

    shard_set = KdPartitioner(4, database_factory=factory).partition(
        "faulty", data, DIMS
    )
    return data, shard_set, injector


class TestShardFaultDegradation:
    def test_one_dead_shard_degrades_to_partial(self):
        data, shard_set, injector = _faulty_shard_setup(fault_shard=0)
        executor = ScatterGatherExecutor(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 10.0))
        intact = executor.execute(poly)
        assert not intact.partial

        # Kill shard 0: flush its cache so reads hit storage, then burst
        # past every retry and the planner's own scan fallback.
        shard_set[0].database.cold_cache()
        injector.fail_next_reads(100_000)
        degraded = executor.execute(poly)
        assert degraded.partial
        assert degraded.failed_shards == (0,)
        assert degraded.shard_faults == 1
        survivor_oids = frozenset(
            int(v)
            for shard in list(shard_set)[1:]
            for v in shard.table.read_column("oid")
        )
        assert _oids(degraded.rows) == _oids(intact.rows) & survivor_oids

        # Faults cleared: the next run is whole again.
        injector.quiesce()
        recovered = executor.execute(poly)
        assert not recovered.partial
        assert _oids(recovered.rows) == _oids(intact.rows)
        executor.close()

    def test_all_shards_dead_raises(self):
        data = _make_data(seed=31)
        injector = FaultInjector(seed=7)
        fast_retry = RetryPolicy(attempts=2, backoff_s=0.0)
        shard_set = KdPartitioner(
            2,
            database_factory=lambda j: Database(
                FaultyStorage(MemoryStorage(), injector),
                buffer_pages=None,
                retry=fast_retry,
            ),
        ).partition("doomed", data, DIMS)
        executor = ScatterGatherExecutor(shard_set)
        for shard in shard_set:
            shard.database.cold_cache()
        injector.fail_next_reads(1_000_000)
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 10.0))
        with pytest.raises(StorageFault):
            executor.execute(poly)
        executor.close()

    def test_knn_survives_a_dead_shard(self):
        data, shard_set, injector = _faulty_shard_setup(fault_shard=1)
        executor = ScatterGatherExecutor(shard_set)
        point = np.array([1.5, 1.0, 0.5])
        intact = executor.knn(point, 10)

        shard_set[1].database.cold_cache()
        injector.fail_next_reads(100_000)
        degraded = executor.knn(point, 10)
        assert degraded.partial
        assert degraded.failed_shards == (1,)
        # The survivors' answer is the brute-force top-k over their rows.
        survivors = [s for s in shard_set if s.shard_id != 1]
        pts = np.vstack(
            [np.column_stack([s.table.read_column(d) for d in DIMS]) for s in survivors]
        )
        oids = np.concatenate([s.table.read_column("oid") for s in survivors])
        dist = np.sqrt(((pts - point) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[:10]
        got = set(shard_set.gather(degraded.row_ids)["oid"].tolist())
        assert got == set(oids[order].tolist())
        assert intact.k == degraded.k == 10
        executor.close()


class TestServiceIntegration:
    def test_service_runs_sharded_engine_with_metrics(self, shard_setup):
        _, shard_set, _, reference = shard_setup
        engine = ScatterGatherExecutor(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.8))
        with QueryService(None, engine, workers=2) as service:
            outcome = service.execute(poly)
            assert _oids(outcome.rows) == _oids(reference.execute(poly).rows)
            assert outcome.shards_pruned > 0
            assert outcome.chosen_path == "sharded"
            # Same query again: served from cache, no new shard work.
            again = service.execute(poly)
            assert again.cache_hit
            summary = service.metrics.summary()
            assert summary["shards_pruned"] > 0
            report = service.report()
            assert report["engine"]["queries"] >= 1
            assert "shards pruned" not in ""  # guard against typo'd keys
            assert "shards dispatched" in service.metrics.format_report()
        engine.close()

    def test_sharded_answers_count_in_engine_metrics(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        engine = ScatterGatherExecutor(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.8))
        with QueryService(None, engine, workers=2) as service:
            outcome = service.execute(poly)
            summary = service.metrics.summary()
            report = service.metrics.format_report()
        engine.close()
        # Each shard's engine choice rides back as a shard_path_<name>
        # extra; the service counts every one under that engine.
        paths = {
            key[len("shard_path_"):]: count
            for key, count in outcome.stats.extra.items()
            if key.startswith("shard_path_") and key != "shard_path_inside"
        }
        assert paths
        for name, count in paths.items():
            assert summary[f"{name}_queries"] == count
            assert f"{name} {count}" in report
        # The gather measures the actual selectivity against the same
        # row total as its estimate, so the error is a real number.
        actual = outcome.actual_selectivity
        assert actual == pytest.approx(len(outcome.rows["_row_id"]) / shard_set.total_rows)
        assert summary["max_selectivity_error"] == pytest.approx(
            abs(outcome.estimated_selectivity - actual)
        )

    def test_partial_results_are_not_cached(self):
        data, shard_set, injector = _faulty_shard_setup(fault_shard=0)
        engine = ScatterGatherExecutor(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 10.0))
        with QueryService(None, engine, workers=2) as service:
            shard_set[0].database.cold_cache()
            injector.fail_next_reads(100_000)
            degraded = service.execute(poly)
            assert degraded.partial
            assert degraded.failed_shards == (0,)
            injector.quiesce()
            # A cached partial answer would repeat the hole; instead the
            # repeat recomputes and comes back whole.
            recovered = service.execute(poly)
            assert not recovered.cache_hit
            assert not recovered.partial
            assert _oids(recovered.rows) > _oids(degraded.rows)
            third = service.execute(poly)
            assert third.cache_hit
        engine.close()

    def test_deadline_propagates_through_service(self, shard_setup):
        _, shard_set, _, _ = shard_setup
        engine = ScatterGatherExecutor(shard_set)
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0))
        with QueryService(None, engine, workers=2, cache_entries=0) as service:
            with pytest.raises(DeadlineExceeded):
                service.execute(poly, deadline=0.0)
            summary = service.metrics.summary()
            assert summary["deadline_misses"] == 1.0
        engine.close()


class TestLayoutFingerprinting:
    def test_fingerprint_depends_on_layout_version(self):
        poly = Polyhedron.from_box(Box.cube(np.zeros(3), 1.0))
        base = query_fingerprint("t", DIMS, poly, layout_version="kd4:aaaa")
        other = query_fingerprint("t", DIMS, poly, layout_version="kd8:bbbb")
        unsharded = query_fingerprint("t", DIMS, poly, layout_version="unsharded")
        assert len({base, other, unsharded}) == 3

    def test_repartitioning_misses_the_old_cache_entries(self):
        data = _make_data(seed=41)
        poly = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 4.0))
        four = ScatterGatherExecutor(
            KdPartitioner(4, buffer_pages=None).partition("pts", data, DIMS)
        )
        two = ScatterGatherExecutor(
            KdPartitioner(2, buffer_pages=None).partition("pts", data, DIMS)
        )
        with QueryService(None, four, workers=1) as service:
            service.execute(poly)
            assert service.cache is not None and service.cache.insertions == 1
            # Swap in a repartitioned engine behind the same service/cache.
            service.planner = two
            swapped = service.execute(poly)
            assert not swapped.cache_hit  # different layout_version, new key
        four.close()
        two.close()


def _engine_pair(data, name):
    """The same 2-shard layout on both transports."""
    partitioner = KdPartitioner(2, buffer_pages=None)
    return (
        ScatterGatherExecutor(partitioner.partition(name, data, DIMS)),
        ScatterGatherExecutor(
            specs=partitioner.plan(name, data, DIMS), transport="process"
        ),
    )


class TestWriteRoutingOnBothTransports:
    WHOLE = Polyhedron.from_box(Box(np.full(3, -50.0), np.full(3, 50.0)))

    def test_delta_fraction_counts_tombstones_not_requests(self):
        # The fraction is each shard's own churn (pending inserts plus
        # tombstones) over its rows, whichever transport reports it.
        data = _make_data()
        engines = _engine_pair(data, "churn")
        rng = np.random.default_rng(5)
        try:
            for engine in engines:
                engine.delete_rows(np.arange(100))
                engine.delete_rows(np.arange(100))
                assert engine.delta_fraction() == pytest.approx(0.05)
            fresh = rng.uniform([-1, -1, -1], [4, 3, 2], size=(50, 3))
            batch = {d: fresh[:, i] for i, d in enumerate(DIMS)}
            batch["oid"] = np.arange(NUM_ROWS, NUM_ROWS + 50, dtype=np.int64)
            inserted = [engine.insert_rows(batch) for engine in engines]
            assert np.array_equal(inserted[0], inserted[1])
            fractions = [engine.delta_fraction() for engine in engines]
            assert fractions[0] == fractions[1]
            for engine, ids in zip(engines, inserted):
                engine.delete_rows(ids[:10])
                assert engine.delta_fraction() == fractions[0]
            # Below the threshold on both: requested ids would have
            # crossed it (0.112 counted against 0.065 real).
            assert fractions[0] < 0.08
            assert [engine.merge(threshold=0.08) for engine in engines] == [[], []]
            for engine in engines:
                engine.delete_rows(np.arange(100, 200))
            reports = [engine.merge(threshold=0.08) for engine in engines]
            assert len(reports[0]) == len(reports[1]) == 1
            assert [s.num_rows for s in engines[0].shard_set] == [
                s.num_rows for s in engines[1].shard_set
            ]
            assert engines[0].delta_fraction() == engines[1].delta_fraction()
            rows = [engine.execute(self.WHOLE).rows for engine in engines]
            assert np.array_equal(np.sort(rows[0]["_row_id"]), np.sort(rows[1]["_row_id"]))
            assert _oids(rows[0]) == _oids(rows[1])
        finally:
            for engine in engines:
                engine.close()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_are_refused_before_any_write(self, bad):
        data = _make_data(1500, seed=3)
        engines = _engine_pair(data, "finite")
        rows = {d: np.array([0.0, 3.0, 0.1]) for d in DIMS}
        rows["y"][2] = bad  # the only bad row sits among good rows of both shards
        rows["oid"] = np.arange(1500, 1503, dtype=np.int64)
        try:
            for engine in engines:
                before = (
                    engine.layout_version,
                    engine.delta_fraction(),
                    len(engine.execute(self.WHOLE).rows["_row_id"]),
                )
                with pytest.raises(ValueError, match="finite"):
                    engine.insert_rows(rows)
                assert before == (
                    engine.layout_version,
                    engine.delta_fraction(),
                    len(engine.execute(self.WHOLE).rows["_row_id"]),
                )
        finally:
            for engine in engines:
                engine.close()
