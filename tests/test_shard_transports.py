"""One contract for sharded execution, held by both transports.

Every case runs once over the thread transport
(:class:`~repro.shard.ScatterGatherExecutor` over a built
:class:`~repro.shard.ShardSet`) and once over the process transport
(:class:`~repro.net.pool.ShardWorkerPool` over the same
:class:`~repro.shard.ShardSpec` plan).  Answers are checked against an
unsharded :class:`~repro.core.planner.QueryPlanner` over the same rows
and against the global row ids the partitioning itself assigns, so
"identical on both transports" is pinned without either transport
serving as the other's reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    FaultInjector,
    KdPartitioner,
    KdTreeIndex,
    Polyhedron,
    QueryPlanner,
    ScatterGatherExecutor,
    StorageFault,
)
from repro.db.catalog import DatabaseOptions
from repro.db.faults import RetryPolicy
from repro.geometry.halfspace import Halfspace
from repro.ingest.delta import DELTA_BASE, SHARD_STRIDE
from repro.service.errors import DeadlineExceeded
from repro.shard import ShardSet, build_shard

DIMS = ["x", "y", "z"]
DATA_COLUMNS = DIMS + ["oid", "band"]
NUM_ROWS = 4000
TRANSPORTS = ["thread", "process"]


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
    data["band"] = (np.arange(n) % 5).astype(np.int64)
    return data


def _engine(transport: str, specs):
    """A 2-shard engine over ``specs`` on the requested transport."""
    if transport == "process":
        return ScatterGatherExecutor(specs=specs, transport="process", seed=0)
    lo = np.min([s.partition_box.lo for s in specs], axis=0)
    hi = np.max([s.partition_box.hi for s in specs], axis=0)
    shard_set = ShardSet(
        specs[0].base_name, DIMS, [build_shard(s) for s in specs], Box(lo, hi)
    )
    return ScatterGatherExecutor(shard_set, seed=0)


def _sorted_by_oid(rows: dict) -> dict:
    order = np.argsort(rows["oid"], kind="stable")
    return {name: np.asarray(rows[name])[order] for name in rows}


def _assert_same_rows(got: dict, want: dict) -> None:
    """Row-for-row equality on the data columns, ordered by ``oid``."""
    a, b = _sorted_by_oid(got), _sorted_by_oid(want)
    for name in DATA_COLUMNS:
        assert np.array_equal(a[name], b[name]), name


class _Setup:
    """Data, its shard plan, an unsharded reference, and the id oracle."""

    def __init__(self, transport: str):
        self.data = _make_data()
        self.specs = KdPartitioner(2).plan("contract", self.data, DIMS)
        self.engine = _engine(transport, self.specs)
        db = Database.in_memory(buffer_pages=None)
        self.reference = QueryPlanner(
            KdTreeIndex.build(db, "contract_ref", dict(self.data), DIMS)
        )
        # The partitioning fixes each row's global id: shard offset plus
        # its position in the shard's kd-clustered table.
        self.global_id = np.empty(NUM_ROWS, dtype=np.int64)
        for spec in self.specs:
            oids = build_shard(spec).table.read_column("oid")
            self.global_id[oids] = spec.row_offset + np.arange(len(oids))

    def check(self, planned, polyhedron, memberships=None) -> None:
        expected = self.reference.execute(polyhedron, memberships=memberships)
        _assert_same_rows(planned.rows, expected.rows)
        assert np.array_equal(
            planned.rows["_row_id"], self.global_id[planned.rows["oid"]]
        )
        assert planned.chosen_path == "sharded"
        assert not planned.partial
        assert planned.shards_dispatched + planned.shards_pruned == 2
        paths = {
            k: v for k, v in planned.stats.extra.items() if k.startswith("shard_path_")
        }
        assert sum(paths.values()) == planned.shards_dispatched

    def split(self) -> tuple[int, float, float]:
        """The router's cut: ``(axis, shard 0's max, shard 1's min)``."""
        lo0, hi0 = self.specs[0].tight_box.lo, self.specs[0].tight_box.hi
        lo1 = self.specs[1].tight_box.lo
        gaps = lo1 - hi0
        axis = int(np.argmax(gaps))
        assert gaps[axis] > 0
        return axis, float(hi0[axis]), float(lo1[axis])


@pytest.fixture(scope="module", params=TRANSPORTS)
def setup(request):
    s = _Setup(request.param)
    yield s
    s.engine.close()


def _queries(setup: _Setup) -> list[tuple[Polyhedron, dict | None]]:
    """Boxes, oblique cuts, IN-lists, an INSIDE-routed shard, an empty box."""
    normal = np.array([1.0, -0.5, 0.25])
    normal /= np.linalg.norm(normal)
    shard0 = setup.specs[0].tight_box
    return [
        (Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.8)), None),
        (Polyhedron.from_box(Box.cube(np.array([3.0, 2.0, 1.0]), 1.5)), None),
        (Polyhedron([Halfspace(normal, 1.0), Halfspace(-normal, 0.5)]), None),
        (
            Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 6.0)),
            {"band": np.array([1, 3])},
        ),
        (Polyhedron.from_box(Box(shard0.lo - 1.0, shard0.hi + 1.0)), None),
        (
            Polyhedron.from_box(Box(shard0.lo - 1.0, shard0.hi + 1.0)),
            {"band": np.array([2])},
        ),
        (Polyhedron.from_box(Box.cube(np.array([40.0, 40.0, 40.0]), 0.5)), None),
    ]


class TestAnswers:
    def test_solo_rows_match_unsharded(self, setup):
        for polyhedron, memberships in _queries(setup):
            planned = setup.engine.execute(polyhedron, memberships=memberships)
            setup.check(planned, polyhedron, memberships)

    def test_batch_rows_match_solo_and_unsharded(self, setup):
        queries = _queries(setup)
        batch = setup.engine.execute_batch(
            [q for q, _ in queries], memberships_list=[m for _, m in queries]
        )
        assert batch.occupancy == len(queries)
        for (polyhedron, memberships), member in zip(queries, batch.members):
            assert member.error is None
            setup.check(member.planned, polyhedron, memberships)
            solo = setup.engine.execute(polyhedron, memberships=memberships)
            assert set(member.planned.rows) == set(solo.rows)
            got = np.argsort(member.planned.rows["_row_id"])
            want = np.argsort(solo.rows["_row_id"])
            for name in solo.rows:
                assert np.array_equal(
                    member.planned.rows[name][got], solo.rows[name][want]
                ), name

    def test_empty_result_keeps_schema_and_dtypes(self, setup):
        polyhedron = Polyhedron.from_box(Box.cube(np.array([40.0, 40.0, 40.0]), 0.5))
        planned = setup.engine.execute(polyhedron)
        expected = setup.reference.execute(polyhedron)
        assert set(planned.rows) == set(expected.rows)
        for name, column in planned.rows.items():
            assert len(column) == 0
            assert column.dtype == expected.rows[name].dtype, name
        assert planned.rows["_row_id"].dtype == np.int64
        assert planned.shards_dispatched == 0 and planned.shards_pruned == 2
        assert planned.estimated_selectivity == 0.0


class TestRouting:
    def test_selective_box_prunes_the_far_shard(self, setup):
        planned = setup.engine.execute(
            Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 0.4))
        )
        assert (planned.shards_dispatched, planned.shards_pruned) == (1, 1)

    def test_whole_space_box_is_inside_every_shard(self, setup):
        planned = setup.engine.execute(
            Polyhedron.from_box(Box(np.full(3, -50.0), np.full(3, 50.0)))
        )
        assert (planned.shards_dispatched, planned.shards_pruned) == (2, 0)
        assert planned.stats.extra["shard_path_inside"] == 2
        assert planned.estimated_selectivity == pytest.approx(1.0)
        assert len(planned.rows["_row_id"]) == NUM_ROWS

    def test_inside_shard_beside_a_partial_one(self, setup):
        shard0 = setup.specs[0].tight_box
        polyhedron = Polyhedron.from_box(Box(shard0.lo - 1.0, shard0.hi + 1.0))
        planned = setup.engine.execute(polyhedron)
        assert (planned.shards_dispatched, planned.shards_pruned) == (2, 0)
        assert planned.stats.extra["shard_path_inside"] == 1
        setup.check(planned, polyhedron)

    def test_estimate_is_row_weighted_over_the_whole_table(self, setup):
        # Shard 0 INSIDE, shard 1 OUTSIDE: the estimate is shard 0's
        # share of all rows, not 1.0 over the dispatched rows alone.
        axis, hi0, lo1 = setup.split()
        shard0 = setup.specs[0].tight_box
        lo = shard0.lo - 1.0
        hi = shard0.hi + 1.0
        hi[axis] = (hi0 + lo1) / 2
        planned = setup.engine.execute(Polyhedron.from_box(Box(lo, hi)))
        assert (planned.shards_dispatched, planned.shards_pruned) == (1, 1)
        assert planned.stats.extra["shard_path_inside"] == 1
        assert planned.estimated_selectivity == pytest.approx(
            setup.specs[0].num_rows / NUM_ROWS
        )
        assert len(planned.rows["_row_id"]) == setup.specs[0].num_rows


class TestDeadlines:
    def test_solo_deadline_raises_and_engine_stays_usable(self, setup):
        calls = {"n": 0}

        def check():
            calls["n"] += 1
            if calls["n"] > 3:
                raise DeadlineExceeded("budget spent")

        polyhedron = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0))
        with pytest.raises(DeadlineExceeded):
            setup.engine.execute(polyhedron, cancel_check=check)
        setup.check(setup.engine.execute(polyhedron), polyhedron)

    def test_expired_solo_deadline_raises_before_dispatch(self, setup):
        def expired():
            raise DeadlineExceeded("budget spent")

        polyhedron = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0))
        with pytest.raises(DeadlineExceeded):
            setup.engine.execute(polyhedron, cancel_check=expired)

    def test_batch_member_deadline_fails_only_that_member(self, setup):
        queries = [q for q, _ in _queries(setup)[:3]]

        def expired():
            raise DeadlineExceeded("budget spent")

        calls = {"n": 0}

        def late():
            # Passes the pre-dispatch check, then expires mid-flight.
            calls["n"] += 1
            if calls["n"] > 1:
                raise DeadlineExceeded("budget spent")

        for doomed in (expired, late):
            calls["n"] = 0
            result = setup.engine.execute_batch(queries, [None, doomed, None])
            assert isinstance(result.members[1].error, DeadlineExceeded)
            assert result.members[1].planned is None
            for idx in (0, 2):
                assert result.members[idx].error is None
                setup.check(result.members[idx].planned, queries[idx])


def _faulty_specs(faulty: tuple[int, ...]):
    """A 2-shard plan whose listed shards fault on every storage read.

    A one-page buffer pool keeps the build warm but sends query reads to
    storage, where every attempt (and every retry) faults.
    """
    specs = KdPartitioner(2, buffer_pages=None).plan("faulty", _make_data(1500, 37), DIMS)
    for shard_id in faulty:
        specs[shard_id].options = DatabaseOptions(
            buffer_pages=1,
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
            fault=FaultInjector(read_fault_rate=1.0, seed=3 + shard_id),
        )
    return specs


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestFaults:
    WHOLE = Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0))

    def test_always_faulting_shard_degrades_to_partial(self, transport):
        specs = _faulty_specs((0,))
        survivors = frozenset(specs[1].columns["oid"].tolist())
        engine = _engine(transport, specs)
        try:
            planned = engine.execute(self.WHOLE)
            assert planned.partial
            assert planned.failed_shards == (0,)
            assert planned.shard_faults == 1
            assert frozenset(planned.rows["oid"].tolist()) == survivors
            batch = engine.execute_batch([self.WHOLE, self.WHOLE])
            for member in batch.members:
                assert member.error is None
                assert member.planned.partial
                assert member.planned.failed_shards == (0,)
                assert frozenset(member.planned.rows["oid"].tolist()) == survivors
        finally:
            engine.close()

    def test_every_dispatched_shard_failing_raises(self, transport):
        engine = _engine(transport, _faulty_specs((0, 1)))
        try:
            with pytest.raises(StorageFault):
                engine.execute(self.WHOLE)
            batch = engine.execute_batch([self.WHOLE])
            assert isinstance(batch.members[0].error, StorageFault)
        finally:
            engine.close()


def _owner(specs, points: np.ndarray) -> np.ndarray:
    """The write router's rule: partition-box containment, first shard
    wins; a point outside every cell goes to the nearest one."""
    owner = np.full(len(points), -1, dtype=np.int64)
    for spec in specs:
        undecided = owner == -1
        inside = spec.partition_box.contains_points(points[undecided])
        owner[np.flatnonzero(undecided)[inside]] = spec.shard_id
    for i in np.flatnonzero(owner == -1):
        distances = [s.partition_box.min_distance_to_point(points[i]) for s in specs]
        owner[i] = int(np.argmin(distances))
    return owner


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestWritePath:
    NUM_ROWS = 1500

    def test_ids_layout_versions_and_merged_rows(self, transport):
        data = _make_data(self.NUM_ROWS, seed=71)
        specs = KdPartitioner(2).plan("writes", data, DIMS)
        engine = _engine(transport, specs)
        whole = Polyhedron.from_box(Box(np.full(3, -50.0), np.full(3, 50.0)))
        rng = np.random.default_rng(72)
        model = {int(o): (data["x"][o], data["y"][o], data["z"][o]) for o in data["oid"]}
        versions = [engine.layout_version]
        try:
            # Inserts: delta-band ids in each owning shard's slice, in
            # input order, continuing across calls.
            issued = {0: 0, 1: 0}
            next_oid = self.NUM_ROWS
            delta_ids = []
            for _ in range(2):
                pts = rng.uniform([-1.0, -1.0, -1.0], [4.0, 3.0, 2.0], size=(40, 3))
                batch = {d: pts[:, i] for i, d in enumerate(DIMS)}
                batch["oid"] = np.arange(next_oid, next_oid + 40, dtype=np.int64)
                batch["band"] = np.zeros(40, dtype=np.int64)
                ids = engine.insert_rows(batch)
                versions.append(engine.layout_version)
                expected = np.empty(40, dtype=np.int64)
                for j, shard_id in enumerate(_owner(specs, pts)):
                    expected[j] = (
                        DELTA_BASE + int(shard_id) * SHARD_STRIDE + issued[int(shard_id)]
                    )
                    issued[int(shard_id)] += 1
                assert np.array_equal(ids, expected)
                for j in range(40):
                    model[next_oid + j] = tuple(pts[j])
                delta_ids.extend(ids.tolist())
                next_oid += 40

            # Deletes: main-band ids by global id, delta-band ids as issued.
            live = engine.execute(whole).rows
            by_id = dict(zip(live["_row_id"].tolist(), live["oid"].tolist()))
            victims = np.concatenate(
                [np.arange(0, 1500, 30, dtype=np.int64), np.array(delta_ids[::8])]
            )
            assert engine.delete_rows(victims) == len(victims)
            versions.append(engine.layout_version)
            assert engine.delete_rows(victims) == 0  # idempotent
            versions.append(engine.layout_version)
            for gid in victims.tolist():
                del model[by_id[gid]]

            reports = engine.merge(threshold=0.0)
            assert len(reports) == 2
            versions.append(engine.layout_version)
            assert len(set(versions)) == len(versions)

            merged = engine.execute(whole).rows
            assert sorted(merged["oid"].tolist()) == sorted(model)
            # Post-merge main-band ids are dense again, shard by shard.
            assert np.array_equal(np.sort(merged["_row_id"]), np.arange(len(model)))
            order = np.argsort(merged["oid"])
            coords = np.column_stack([merged[d][order] for d in DIMS])
            want = np.array([model[o] for o in sorted(model)])
            assert np.array_equal(coords, want)
            assert engine.delta_fraction() == 0.0
        finally:
            engine.close()
