"""One contract for solo and batched planning: ``execute(q)`` is ``execute_batch([q])``.

Every case runs the same query twice through two identically configured
:class:`~repro.core.planner.QueryPlanner` objects -- once as a solo
:meth:`~repro.core.planner.QueryPlanner.execute` call and once as a
batch of one -- and requires the two outcomes to agree on everything a
caller can observe: the rows (aligned on ``_row_id``, dtypes included),
every :class:`~repro.db.stats.QueryStats` counter and ``extra`` entry,
the chosen path, the selectivity estimate and the fallback flag and
reason.  The axes are engine x query shape x delta state, plus a forced
bitmap/hybrid engine over a table with no bitmap index.

Deadlines: an expired or mid-flight deadline raises from a solo call and
fails only its own member of a batch.

The last case pins the storage read sequence of a solo kd query on a
bounded on-disk pool: which data pages it reads, in which order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Box, Database, KdTreeIndex, Polyhedron, QueryPlanner, sdss_color_sample
from repro.bitmap import BitmapIndex
from repro.db.scan import full_scan
from repro.db.storage import FileStorage
from repro.geometry.halfspace import Halfspace
from repro.service.errors import DeadlineExceeded

BANDS = ["u", "g", "r", "i", "z"]
ENGINES = ("auto", "kdtree", "scan", "bitmap", "hybrid")
QUERIES = ("box", "oblique", "in_list", "empty", "whole")
NUM_ROWS = 4000


def _columns(n: int, seed: int) -> dict[str, np.ndarray]:
    columns = dict(sdss_color_sample(n, seed=seed).columns())
    columns["oid"] = np.arange(n, dtype=np.float64)
    return columns


def _query(name: str, columns: dict) -> tuple[Polyhedron, dict | None]:
    points = np.column_stack([columns[b] for b in BANDS])
    center = np.median(points, axis=0)
    if name == "box":
        return Polyhedron.from_box(Box(center - 0.4, center + 0.4)), None
    if name == "oblique":
        # A colour cut (u - g) plus a brightness slab: no axis-aligned face.
        normal = np.array([1.0, -1.0, 0.0, 0.0, 0.0]) / math.sqrt(2.0)
        bright = np.array([0.0, 0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
        return (
            Polyhedron(
                [
                    Halfspace(normal, float(normal @ center) + 0.1),
                    Halfspace(bright, float(bright @ center) + 0.3),
                    Halfspace(-bright, -float(bright @ center) + 0.3),
                ]
            ),
            None,
        )
    if name == "in_list":
        oids = columns["oid"]
        listed = np.concatenate([oids[::7], oids[-25:]])
        return Polyhedron.from_box(Box(center - 1.0, center + 1.0)), {"oid": listed}
    if name == "empty":
        return Polyhedron.from_box(Box(center + 50.0, center + 51.0)), None
    if name == "whole":
        return Polyhedron.from_box(Box(points.min(axis=0) - 5.0, points.max(axis=0) + 5.0)), None
    raise ValueError(name)


class _Setup:
    """A kd + bitmap indexed table, optionally with pending deltas."""

    def __init__(self, delta: bool, bitmap: bool = True):
        self.db = Database.in_memory(buffer_pages=None)
        self.name = "contract"
        base = _columns(NUM_ROWS, seed=3)
        self.index = KdTreeIndex.build(self.db, self.name, dict(base), BANDS)
        if bitmap:
            BitmapIndex.build(self.db, self.name, BANDS)
        self.columns = base
        if delta:
            fresh = _columns(60, seed=4)
            fresh["oid"] = np.arange(NUM_ROWS, NUM_ROWS + 60, dtype=np.float64)
            fresh["kd_leaf"] = np.zeros(60, dtype=np.int64)
            self.db.ingest.insert(self.name, fresh)
            self.db.ingest.delete(self.name, np.arange(0, 400, 9, dtype=np.int64))
            self.columns = {
                name: np.concatenate([base[name], fresh[name]]) for name in base
            }
        # Warm the unbounded pool so both runs of a case see the same
        # cache state (no read-ahead on either side).
        full_scan(self.db.table(self.name))

    def planners(self, engine: str) -> tuple[QueryPlanner, QueryPlanner]:
        """Two planners built from the same persisted calibration."""
        return (
            QueryPlanner(self.index, seed=5, engine=engine),
            QueryPlanner(self.index, seed=5, engine=engine),
        )


@pytest.fixture(scope="module", params=["clean", "delta"])
def setup(request):
    return _Setup(delta=request.param == "delta")


def _sorted_rows(rows: dict) -> dict:
    order = np.argsort(rows["_row_id"], kind="stable")
    return {name: np.asarray(values)[order] for name, values in rows.items()}


def _assert_same_rows(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    a, b = _sorted_rows(got), _sorted_rows(want)
    for name in want:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name


def _stats_view(stats) -> dict:
    return {
        "rows_examined": stats.rows_examined,
        "rows_returned": stats.rows_returned,
        "cells_inside": stats.cells_inside,
        "cells_outside": stats.cells_outside,
        "cells_partial": stats.cells_partial,
        "nodes_visited": stats.nodes_visited,
        "pages_skipped": stats.pages_skipped,
        "pages_prefetched": stats.pages_prefetched,
        "pages_touched": stats.pages_touched,
        "extra": dict(stats.extra),
    }


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def _assert_same_outcome(solo, batched) -> None:
    _assert_same_rows(batched.rows, solo.rows)
    assert _stats_view(batched.stats) == _stats_view(solo.stats)
    assert batched.chosen_path == solo.chosen_path
    assert _same_float(batched.estimated_selectivity, solo.estimated_selectivity)
    assert _same_float(batched.actual_selectivity, solo.actual_selectivity)
    assert batched.sampled_pages == solo.sampled_pages
    assert batched.fallback == solo.fallback
    assert batched.fallback_reason == solo.fallback_reason


def _expired() -> None:
    raise DeadlineExceeded("deadline passed before execution")


class _TrippingCheck:
    """A cancel check that raises after a fixed number of polls."""

    def __init__(self, after: int):
        self.after = after
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls > self.after:
            raise DeadlineExceeded("deadline passed mid-flight")


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_batch_of_one_matches_solo(setup, engine, query):
    polyhedron, memberships = _query(query, setup.columns)
    solo_planner, batch_planner = setup.planners(engine)
    solo = solo_planner.execute(polyhedron, memberships=memberships)
    batch = batch_planner.execute_batch([polyhedron], memberships_list=[memberships])
    assert batch.occupancy == 1
    (member,) = batch.members
    assert member.error is None
    _assert_same_outcome(solo, member.planned)
    if query == "empty":
        assert len(solo.rows["_row_id"]) == 0
    if query == "whole":
        assert solo.stats.rows_returned == setup.db.table(setup.name).num_live_rows


@pytest.mark.parametrize("engine", ["bitmap", "hybrid"])
def test_forced_engine_without_bitmap_index_degrades_alike(engine):
    plain = _Setup(delta=False, bitmap=False)
    polyhedron, _ = _query("box", plain.columns)
    solo_planner, batch_planner = plain.planners(engine)
    solo = solo_planner.execute(polyhedron)
    batch = batch_planner.execute_batch([polyhedron])
    assert solo.fallback
    assert "no bitmap index" in solo.fallback_reason
    _assert_same_outcome(solo, batch.members[0].planned)


@pytest.mark.parametrize(
    "make_check", [lambda: _expired, lambda: _TrippingCheck(3)], ids=["expired", "mid_flight"]
)
@pytest.mark.parametrize("engine", ENGINES)
def test_deadline_raises_solo_and_fails_only_its_member(setup, engine, make_check):
    queries = [_query(name, setup.columns) for name in ("box", "whole", "oblique")]
    solo_planner, batch_planner = setup.planners(engine)
    polyhedron, memberships = queries[1]
    with pytest.raises(DeadlineExceeded):
        solo_planner.execute(polyhedron, cancel_check=make_check(), memberships=memberships)

    reference = [
        QueryPlanner(setup.index, seed=5, engine=engine).execute(p, memberships=m)
        for p, m in queries
    ]
    batch = batch_planner.execute_batch(
        [p for p, _ in queries],
        [None, make_check(), None],
        memberships_list=[m for _, m in queries],
    )
    assert isinstance(batch.members[1].error, DeadlineExceeded)
    assert batch.members[1].planned is None
    for idx in (0, 2):
        member = batch.members[idx]
        assert member.error is None
        _assert_same_rows(member.planned.rows, reference[idx].rows)


class _RecordingStorage(FileStorage):
    """File storage that logs every data-page read, in call order."""

    def __init__(self, root):
        super().__init__(root)
        self.namespace: str | None = None
        self.reads: list[int] = []

    def read_page_bytes(self, namespace: str, page_id: int) -> bytes:
        if namespace == self.namespace:
            self.reads.append(page_id)
        return super().read_page_bytes(namespace, page_id)

    def read_pages_bytes(self, namespace: str, page_ids) -> list[bytes]:
        if namespace == self.namespace:
            self.reads.extend(page_ids)
        return super().read_pages_bytes(namespace, page_ids)


#: The data pages a cold solo kd query reads from storage, in order: the
#: traversal's right-first depth-first range order, each read-ahead run
#: ascending inside it.
SOLO_KD_READ_SEQUENCE = [23, 20, 19, 18, 17, 16, 15, 14, 13, 12, 9, 6, 1]


def solo_kd_read_setup(root):
    """A cold, bounded, on-disk kd table and its pinned query."""
    storage = _RecordingStorage(root)
    db = Database(storage, buffer_pages=16, decoded_cache_bytes=1 << 16)
    columns = _columns(NUM_ROWS, seed=3)
    index = KdTreeIndex.build(db, "reads", dict(columns), BANDS)
    storage.namespace = index.table.physical_name
    planner = QueryPlanner(index, seed=5, engine="kdtree")
    polyhedron, _ = _query("oblique", columns)
    # Fill the planner's probe sample now, so the recorded reads are the
    # engine's alone.
    planner.estimate_selectivity(polyhedron)
    db.cold_cache()
    storage.reads.clear()
    return storage, db, planner, polyhedron


def test_solo_kd_storage_read_sequence_is_pinned(tmp_path):
    storage, db, planner, polyhedron = solo_kd_read_setup(tmp_path / "db")
    planned = planner.execute(polyhedron)
    assert planned.chosen_path == "kdtree"
    assert storage.reads == SOLO_KD_READ_SEQUENCE
