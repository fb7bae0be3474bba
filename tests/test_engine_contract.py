"""One contract for every engine the query service can front.

Each case runs once per engine -- a single-table
:class:`~repro.core.planner.QueryPlanner` and a
:class:`~repro.shard.ScatterGatherExecutor` on the thread and on the
process transport -- always behind a :class:`~repro.service.QueryService`,
and checks what the service relies on the engine for:

- a repeated query is a result-cache hit;
- an insert through the engine's own write path moves
  ``layout_version``, and the next run of the same query misses the cache;
- ``report()["io"]`` is filled in;
- the service metrics count each executed query once -- cache hits
  apart -- both solo and micro-batched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Box,
    Database,
    KdPartitioner,
    KdTreeIndex,
    Polyhedron,
    QueryPlanner,
    QueryService,
    ScatterGatherExecutor,
    sdss_color_sample,
)
from repro.bitmap import BitmapIndex
from repro.shard import ShardSet, build_shard

BANDS = ["u", "g", "r", "i", "z"]
NUM_ROWS = 2000
ENGINES = ("planner", "thread", "process")


def _columns(n: int, seed: int, first_oid: int = 0) -> dict[str, np.ndarray]:
    columns = dict(sdss_color_sample(n, seed=seed).columns())
    columns["oid"] = np.arange(first_oid, first_oid + n, dtype=np.int64)
    return columns


class _Served:
    """An engine, the database the service watches, and its write path."""

    def __init__(self, kind: str):
        self.columns = _columns(NUM_ROWS, seed=11)
        self.database = None
        self.close = lambda: None
        if kind == "planner":
            self.database = Database.in_memory(buffer_pages=None)
            index = KdTreeIndex.build(self.database, "contract", dict(self.columns), BANDS)
            BitmapIndex.build(self.database, "contract", BANDS)
            self.engine = QueryPlanner(index, seed=0)
            self.insert = index.table.insert_rows
        else:
            specs = KdPartitioner(2).plan("contract", dict(self.columns), BANDS)
            if kind == "process":
                self.engine = ScatterGatherExecutor(specs=specs, transport="process", seed=0)
            else:
                shard_set = ShardSet("contract", BANDS, [build_shard(s) for s in specs])
                self.engine = ScatterGatherExecutor(shard_set, seed=0)
            self.insert = self.engine.insert_rows
            self.close = self.engine.close

    def queries(self, count: int) -> list[Polyhedron]:
        points = np.column_stack([self.columns[b] for b in BANDS])
        center = np.median(points, axis=0)
        widths = np.linspace(0.25, 1.2, count)
        return [Polyhedron.from_box(Box(center - w, center + w)) for w in widths]

    def service(self, **options) -> QueryService:
        return QueryService(self.database, self.engine, workers=1, **options)


@pytest.fixture(scope="module", params=ENGINES)
def served(request):
    setup = _Served(request.param)
    yield setup
    setup.close()


def test_repeated_query_is_a_cache_hit(served):
    (polyhedron,) = served.queries(1)
    with served.service() as service:
        first = service.execute(polyhedron, timeout=60)
        again = service.execute(polyhedron, timeout=60)
    assert not first.cache_hit
    assert again.cache_hit
    assert len(again.rows["_row_id"]) == len(first.rows["_row_id"])


def test_insert_moves_layout_and_misses_the_cache(served):
    (polyhedron,) = served.queries(1)
    with served.service() as service:
        before = service.execute(polyhedron, timeout=60)
        assert service.execute(polyhedron, timeout=60).cache_hit
        layout = service.report()["layout_version"]
        fresh = _columns(5, seed=12, first_oid=10 * NUM_ROWS)
        center = np.median(np.column_stack([served.columns[b] for b in BANDS]), axis=0)
        for axis, band in enumerate(BANDS):
            fresh[band] = np.full(5, center[axis])
        served.insert(fresh)
        assert service.report()["layout_version"] != layout
        after = service.execute(polyhedron, timeout=60)
    assert not after.cache_hit
    assert len(after.rows["_row_id"]) == len(before.rows["_row_id"]) + 5


def test_report_carries_io(served):
    with served.service() as service:
        for polyhedron in served.queries(2):
            service.execute(polyhedron, timeout=60)
        report = service.report()
    assert report["io"]


@pytest.mark.parametrize("batch_size", [1, 4])
def test_metrics_count_each_executed_query_once(served, batch_size):
    queries = served.queries(4)
    with served.service(batch_size=batch_size, batch_delay_s=0.05) as service:
        tickets = [service.submit(polyhedron) for polyhedron in queries]
        outcomes = [ticket.result(timeout=60) for ticket in tickets]
        outcomes += [service.execute(polyhedron, timeout=60) for polyhedron in queries]
        summary = service.metrics.summary()
    executed = sum(1 for outcome in outcomes if not outcome.cache_hit)
    assert executed >= len(queries)
    assert summary["completed"] == len(outcomes)
    assert summary["completed"] - summary["cache_hits"] == executed
    if batch_size > 1:
        assert summary["batches"] >= 1
