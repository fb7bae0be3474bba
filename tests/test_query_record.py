"""One query, four paths: the per-query record agrees across transports.

The same box query runs through a :class:`QueryService` over a
single-table :class:`QueryPlanner`, a service over a 2-shard process
pool, and the TCP :class:`QueryClient` in front of each service.  The
service outcome and the client outcome must describe the query the same
way -- rows, plan, estimate, stats, degradation flags -- and a repeat
must be a result-cache hit on both sides.  A field that one transport
drops or renames fails here.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import Box, Database, KdTreeIndex, Polyhedron, QueryPlanner, QueryService
from repro.net.client import QueryClient
from repro.net.pool import ShardWorkerPool
from repro.net.server import QueryServer
from repro.service import rows_equal
from repro.service.result_cache import query_fingerprint
from repro.shard import KdPartitioner

DIMS = ["x", "y", "z"]


def make_data(n: int = 3000, seed: int = 5) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    pts = rng.normal([0.0, 0.0, 0.0], [0.6, 0.4, 0.5], size=(n, 3))
    data = {d: pts[:, i] for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(n, dtype=np.int64)
    return data


QUERY = Polyhedron.from_box(Box.cube(np.array([0.2, 0.1, 0.0]), 0.9))


class ServerThread:
    """A :class:`QueryServer` on a background event loop."""

    def __init__(self, service: QueryService):
        self.server = None
        self.loop = None
        ready = threading.Event()

        def run() -> None:
            async def main() -> None:
                self.server = QueryServer(service, port=0)
                await self.server.start()
                self.loop = asyncio.get_running_loop()
                ready.set()
                await self.server.serve_until_drained()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert ready.wait(15), "server failed to start"

    def client(self, tenant: str) -> QueryClient:
        host, port = self.server.address
        return QueryClient(host, port, tenant=tenant, timeout=60)

    def drain(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop).result(30)
        self.thread.join(30)


@pytest.fixture(scope="module", params=["planner", "pool"])
def engine(request):
    data = make_data()
    if request.param == "planner":
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(db, "rec", data, DIMS)
        yield db, QueryPlanner(index, sample_pages=8, seed=0)
        return
    specs = KdPartitioner(2, buffer_pages=None).plan("rec", data, DIMS)
    pool = ShardWorkerPool(specs, sample_pages=8, seed=0)
    yield None, pool
    pool.close()


def _both_paths(engine):
    """(first, repeat) outcomes from the service and from its TCP client."""
    db, planner = engine
    with QueryService(db, planner, workers=2) as service:
        local = service.execute(QUERY, timeout=60), service.execute(QUERY, timeout=60)
        key = query_fingerprint(
            planner.table_name, planner.dims, QUERY, layout_version=planner.layout_version
        )
        cached = service.cache.get(key)
    # A hit is a new record over the cached one, which stays as the
    # engine returned it.
    assert local[1] is not cached and local[1].rows is cached.rows
    assert not cached.cache_hit and cached.query_id == 0 and cached.session_id == ""
    service = QueryService(db, planner, workers=2).start()
    front = ServerThread(service)
    try:
        with front.client("record") as client:
            remote = client.query(QUERY), client.query(QUERY)
    finally:
        front.drain()
    return local, remote


def test_service_and_client_agree_on_the_record(engine):
    (local, local_again), (remote, remote_again) = _both_paths(engine)
    assert len(local.rows["_row_id"]) > 0
    assert rows_equal(local.rows, remote.rows)
    assert remote.chosen_path == local.chosen_path
    assert remote.estimated_selectivity == local.estimated_selectivity
    assert remote.stats.rows_returned == local.stats.rows_returned
    assert remote.stats.pages_touched == local.stats.pages_touched
    assert remote.partial == local.partial
    assert remote.fallback == local.fallback
    assert tuple(remote.failed_shards) == tuple(local.failed_shards)
    assert remote.actual_selectivity == local.actual_selectivity
    assert remote.sampled_pages == local.sampled_pages
    assert remote.fallback_reason == local.fallback_reason
    assert not local.cache_hit and not remote.cache_hit
    assert local_again.cache_hit and remote_again.cache_hit
    assert rows_equal(local_again.rows, remote_again.rows)


def test_the_record_crosses_the_wire_whole(engine):
    """Every scalar field but the service's own timings and ids arrives
    unchanged, and the client learns its session and query id."""
    (local, _), (remote, remote_again) = _both_paths(engine)
    same = {
        "chosen_path", "estimated_selectivity", "sampled_pages", "fallback",
        "fallback_reason", "actual_selectivity", "shards_dispatched",
        "shards_pruned", "shard_faults", "partial", "cache_hit",
    }
    for name in same:
        assert getattr(remote, name) == getattr(local, name), name
    assert remote.stats.pages_skipped == local.stats.pages_skipped
    assert remote.stats.rows_examined == local.stats.rows_examined
    assert remote.session_id and remote.session_id == remote_again.session_id
    assert remote_again.query_id == remote.query_id + 1
    assert remote.queue_wait_s >= 0.0 and remote.exec_time_s >= 0.0


def test_closed_connections_leave_no_session_behind(engine):
    db, planner = engine
    service = QueryService(db, planner, workers=2).start()
    front = ServerThread(service)
    try:
        start = len(service.sessions)
        for cycle in range(20):
            with front.client(f"cycle-{cycle}") as client:
                assert client.query(QUERY).session_id
        # The server closes a session once it sees its connection end.
        deadline = time.monotonic() + 10
        while len(service.sessions) != start and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(service.sessions) == start
    finally:
        front.drain()
