"""Soak: a long-running ``serve`` keeps every structure bounded.

Thousands of queries, a quarter of them repeats, go through the TCP
front door over a 2-shard process pool while clients connect and
disconnect.  After every round the metrics ring, the result cache (in
entries and bytes) and the session table must sit within their bounds,
and the shard workers must be the same processes.  The case does no
inserts: the pool's op log grows with every acknowledged write until it
is compacted, so a write soak belongs with that work.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import Box, Polyhedron, QueryService
from repro.net.pool import ShardWorkerPool
from repro.service import metrics as service_metrics
from repro.shard import KdPartitioner

from tests.test_query_record import DIMS, ServerThread, make_data

pytestmark = pytest.mark.faultsweep

ROUNDS = 25
CLIENTS = 2
PER_CLIENT = 40  # 25 rounds x 2 clients x 40 = 2,000 queries
RING = 300
CACHE_ENTRIES = 64
CACHE_BYTES = 96 << 10


def _workload(n: int, seed: int = 3) -> list[Polyhedron]:
    """``n`` small boxes; every fourth is a repeat of an earlier one."""
    rng = np.random.default_rng(seed)
    fresh = [
        Polyhedron.from_box(Box.cube(rng.normal(0.0, 0.5, size=3), rng.uniform(0.1, 0.5)))
        for _ in range(n - n // 4)
    ]
    queries = list(fresh)
    for i in range(n // 4):
        queries.insert(4 * i + 3, fresh[rng.integers(0, 3 * i + 3)])
    return queries


def test_serve_structures_stay_bounded(monkeypatch):
    monkeypatch.setattr(service_metrics, "RECENT_RECORDS", RING)
    specs = KdPartitioner(2, buffer_pages=None).plan("soak", make_data(), DIMS)
    pool = ShardWorkerPool(specs, sample_pages=4, seed=0)
    service = QueryService(
        None, pool, workers=2, cache_entries=CACHE_ENTRIES, cache_bytes=CACHE_BYTES
    ).start()
    front = ServerThread(service)
    queries = _workload(ROUNDS * CLIENTS * PER_CLIENT)
    try:
        pids = [w["pid"] for w in pool.worker_stats()]
        sessions = len(service.sessions)
        errors: list[BaseException] = []

        def client(round_idx: int, client_idx: int) -> None:
            first = (round_idx * CLIENTS + client_idx) * PER_CLIENT
            try:
                with front.client(f"soak-{round_idx}-{client_idx}") as conn:
                    for poly in queries[first : first + PER_CLIENT]:
                        conn.query(poly)
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        for round_idx in range(ROUNDS):
            threads = [
                threading.Thread(target=client, args=(round_idx, c)) for c in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert not errors, errors
            assert len(service.metrics.per_query()) <= RING
            assert len(service.cache) <= CACHE_ENTRIES
            assert service.cache.cache_bytes <= CACHE_BYTES
            deadline = time.monotonic() + 10
            while len(service.sessions) != sessions and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(service.sessions) == sessions
            assert [w["pid"] for w in pool.worker_stats()] == pids
            assert service.alive_workers == 2

        summary = service.metrics.summary()
        assert summary["completed"] == len(queries)
        assert summary["cache_hits"] > 0
        assert len(service.metrics.per_query()) == RING
    finally:
        front.drain()
        pool.close()
