"""The networked execution layer: wire protocol, worker pool, front door.

Fast-tier coverage of `repro.net`: framing round-trips under arbitrary
chunking (hypothesis), torn/truncated-frame rejection with structured
errors, spawn-safety (pickling) of everything a worker process receives,
process-pool parity with the thread executor, dead-worker degradation to
uncached partials with automatic respawn, and the asyncio TCP server's
session/admission/streaming/drain behavior.  The contract both shard
transports share (answers, routing, deadlines, faults, writes) lives in
test_shard_transports.py.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Box,
    FaultInjector,
    Polyhedron,
    QueryService,
    ScatterGatherExecutor,
    StorageFault,
)
from repro.db.catalog import DatabaseOptions
from repro.db.errors import TransientIOError
from repro.db.faults import RetryPolicy
from repro.db.stats import QueryStats
from repro.net.client import QueryClient, replay_over_network
from repro.net.pool import ShardWorkerPool, WorkerDied
from repro.net.server import QueryServer
from repro.net.wire import (
    FrameDecoder,
    FrameError,
    MessageType,
    box_from_wire,
    box_to_wire,
    columns_from_blob,
    columns_to_blob,
    encode_frame,
    error_from_wire,
    error_to_wire,
    polyhedron_from_wire,
    polyhedron_to_wire,
    stats_from_wire,
    stats_to_wire,
)
from repro.service.errors import DeadlineExceeded, ServiceClosed
from repro.shard import KdPartitioner
from repro.shard.partitioner import ShardSpec

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


def _queries() -> list[Polyhedron]:
    return [
        Polyhedron.from_box(Box.cube(np.array([0.0, 0.0, 0.0]), 1.0)),
        Polyhedron.from_box(Box.cube(np.array([3.0, 2.0, 1.0]), 1.6)),
        Polyhedron.from_box(Box.cube(np.array([1.5, 1.0, 0.5]), 8.0)),
        Polyhedron.from_box(Box.cube(np.array([40.0, 40.0, 40.0]), 0.5)),
    ]


def _rows_identical(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    ia, ib = np.argsort(a["_row_id"]), np.argsort(b["_row_id"])
    return all(np.array_equal(a[n][ia], b[n][ib]) for n in a)


# -- wire protocol ----------------------------------------------------------


_HEADERS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False),
        st.text(max_size=16),
        st.booleans(),
        st.none(),
        st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
    ),
    max_size=6,
)


class TestFraming:
    @settings(max_examples=50, deadline=None)
    @given(
        msg_type=st.sampled_from(list(MessageType)),
        header=_HEADERS,
        blob=st.binary(max_size=256),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_roundtrip_under_arbitrary_chunking(self, msg_type, header, blob, chunk):
        encoded = encode_frame(msg_type, header, blob)
        decoder = FrameDecoder()
        for start in range(0, len(encoded), chunk):
            decoder.feed(encoded[start : start + chunk])
        frame = decoder.pop()
        assert frame is not None
        assert frame.type is msg_type
        assert frame.header == header
        assert frame.blob == blob
        assert decoder.pop() is None
        decoder.finish()  # clean boundary: no leftover bytes

    @settings(max_examples=30, deadline=None)
    @given(
        headers=st.lists(_HEADERS, min_size=1, max_size=4),
        chunk=st.integers(min_value=1, max_value=32),
    )
    def test_back_to_back_frames_split_correctly(self, headers, chunk):
        stream = b"".join(encode_frame(MessageType.PING, h) for h in headers)
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), chunk):
            decoder.feed(stream[start : start + chunk])
            while (frame := decoder.pop()) is not None:
                decoded.append(frame.header)
        assert decoded == headers

    def test_truncated_stream_is_reported(self):
        encoded = encode_frame(MessageType.QUERY, {"request_id": 1}, b"xyz")
        decoder = FrameDecoder()
        decoder.feed(encoded[: len(encoded) - 2])
        assert decoder.pop() is None
        with pytest.raises(FrameError) as info:
            decoder.finish()
        assert info.value.kind == "truncated"

    def test_torn_frame_fails_checksum(self):
        encoded = bytearray(encode_frame(MessageType.PAGE, {"a": 1}, b"payload"))
        encoded[len(encoded) // 2] ^= 0xFF
        decoder = FrameDecoder()
        decoder.feed(bytes(encoded))
        with pytest.raises(FrameError) as info:
            decoder.pop()
        assert info.value.kind in ("checksum", "header", "oversized")

    def test_wrong_magic_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"XX" + encode_frame(MessageType.PING, {})[2:])
        with pytest.raises(FrameError) as info:
            decoder.pop()
        assert info.value.kind == "magic"

    def test_wrong_version_rejected(self):
        encoded = bytearray(encode_frame(MessageType.PING, {}))
        encoded[2] = 99
        decoder = FrameDecoder()
        decoder.feed(bytes(encoded))
        with pytest.raises(FrameError) as info:
            decoder.pop()
        assert info.value.kind == "version"

    def test_insane_length_prefix_rejected_before_buffering(self):
        # A torn stream can present garbage lengths; the decoder must
        # refuse them instead of waiting for gigabytes that never come.
        encoded = bytearray(encode_frame(MessageType.PING, {}))
        encoded[4:8] = (1 << 31).to_bytes(4, "big")
        decoder = FrameDecoder()
        decoder.feed(bytes(encoded))
        with pytest.raises(FrameError) as info:
            decoder.pop()
        assert info.value.kind == "oversized"


class TestConverters:
    def test_polyhedron_roundtrip_is_float64_exact(self):
        rng = np.random.default_rng(3)
        poly = Polyhedron.from_inequalities(rng.normal(size=(6, 4)), rng.normal(size=6))
        back = polyhedron_from_wire(polyhedron_to_wire(poly))
        assert np.array_equal(back.normals, poly.normals)
        assert np.array_equal(back.offsets, poly.offsets)

    def test_box_roundtrip(self):
        box = Box(np.array([-1.5, 0.25]), np.array([2.0, 7.125]))
        back = box_from_wire(box_to_wire(box))
        assert np.array_equal(back.lo, box.lo)
        assert np.array_equal(back.hi, box.hi)

    def test_columns_roundtrip_mixed_dtypes(self):
        rows = {
            "x": np.linspace(0, 1, 17),
            "n": np.arange(17, dtype=np.int32),
            "_row_id": np.arange(17, dtype=np.int64) * 3,
        }
        meta, blob = columns_to_blob(rows)
        back = columns_from_blob(meta, blob)
        assert set(back) == set(rows)
        for name in rows:
            assert back[name].dtype == rows[name].dtype
            assert np.array_equal(back[name], rows[name])

    def test_empty_columns_keep_schema(self):
        rows = {"x": np.empty(0, dtype=np.float64), "_row_id": np.empty(0, np.int64)}
        meta, blob = columns_to_blob(rows)
        back = columns_from_blob(meta, blob)
        assert back["x"].dtype == np.float64 and len(back["x"]) == 0

    def test_stats_roundtrip_preserves_page_accounting(self):
        stats = QueryStats(rows_examined=100, rows_returned=7, pages_touched=5)
        stats.extra["custom"] = 4
        back = stats_from_wire(stats_to_wire(stats))
        assert back.rows_examined == 100 and back.rows_returned == 7
        assert back.pages_touched == stats.pages_touched
        assert back.extra["custom"] == 4
        # Merge additivity (another shard's page read) survives the wire.
        other = QueryStats(pages_touched=1)
        back.merge(other)
        assert back.pages_touched == stats.pages_touched + 1

    def test_error_roundtrip(self):
        deadline = error_from_wire(error_to_wire(DeadlineExceeded("late")))
        assert isinstance(deadline, DeadlineExceeded)
        fault = error_from_wire(error_to_wire(TransientIOError("flaky page")))
        assert isinstance(fault, TransientIOError)
        assert isinstance(fault, StorageFault)
        unknown = error_from_wire({"kind": "storage_fault", "type": "Database"})
        assert isinstance(unknown, StorageFault)  # never resolves non-faults


class TestSpawnSafety:
    def test_fault_injector_pickles_with_rng_state(self):
        injector = FaultInjector(seed=11, corrupt_rate=0.5)
        # Burn some RNG state so we verify state (not just config) survives.
        for _ in range(7):
            injector.corrupt_this_read()
        clone = pickle.loads(pickle.dumps(injector))
        draws = [injector.corrupt_this_read() for _ in range(20)]
        assert [clone.corrupt_this_read() for _ in range(20)] == draws
        assert clone.counters() == injector.counters()

    def test_retry_policy_and_options_pickle(self):
        options = DatabaseOptions(
            buffer_pages=64,
            retry=RetryPolicy(attempts=3, backoff_s=0.0),
            fault=FaultInjector(read_fault_rate=0.1, seed=2),
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone.retry.attempts == 3
        db = clone.open()
        assert db.io_stats is not None

    def test_shard_specs_pickle(self):
        specs = KdPartitioner(2).plan("pk", _make_data(256), DIMS)
        clones = pickle.loads(pickle.dumps(specs))
        for spec, clone in zip(specs, clones):
            assert isinstance(clone, ShardSpec)
            assert clone.shard_id == spec.shard_id
            assert clone.num_rows == spec.num_rows
            for name in spec.columns:
                assert np.array_equal(clone.columns[name], spec.columns[name])


# -- process worker pool ----------------------------------------------------


@pytest.fixture(scope="module")
def pool_setup():
    """One dataset, thread- and process-transport executors over it."""
    data = _make_data()
    partitioner = KdPartitioner(4, buffer_pages=None)
    specs = partitioner.plan("pts", data, DIMS)
    shard_set = partitioner.partition("pts", data, DIMS)
    thread_ex = ScatterGatherExecutor(shard_set, sample_pages=8, seed=0)
    pool = ShardWorkerPool(
        specs, sample_pages=8, seed=0, heartbeat_s=0.2, heartbeat_misses=5
    )
    yield data, specs, thread_ex, pool
    pool.close()
    thread_ex.close()


class TestShardWorkerPool:
    def test_engine_protocol_matches_thread_executor(self, pool_setup):
        _, _, thread_ex, pool = pool_setup
        assert pool.table_name == thread_ex.table_name
        assert pool.dims == thread_ex.dims
        assert pool.layout_version == thread_ex.layout_version
        assert pool.transport == "process"
        assert thread_ex.transport == "thread"

    def test_solo_results_identical_to_thread_transport(self, pool_setup):
        _, _, thread_ex, pool = pool_setup
        for poly in _queries():
            a = thread_ex.execute(poly)
            b = pool.execute(poly)
            assert _rows_identical(a.rows, b.rows)
            assert a.stats.pages_touched == b.stats.pages_touched
            assert b.chosen_path == "sharded"
            assert not b.partial

    def test_worker_stats_track_utilization(self, pool_setup):
        _, _, _, pool = pool_setup
        pool.execute(_queries()[2])
        stats = pool.worker_stats()
        assert len(stats) == 4
        assert all(entry["pid"] for entry in stats)
        assert sum(entry["busy_s"] for entry in stats) > 0

    def test_knn_is_explicitly_unsupported(self, pool_setup):
        _, _, _, pool = pool_setup
        with pytest.raises(NotImplementedError):
            pool.knn(np.zeros(3), 5)


class TestWorkerDeath:
    def test_dead_worker_degrades_to_partial_then_respawns(self):
        data = _make_data(1500, seed=23)
        specs = KdPartitioner(2, buffer_pages=None).plan("mortal", data, DIMS)
        poly = _queries()[2]
        with ShardWorkerPool(
            specs, sample_pages=4, seed=0, heartbeat_s=0.1, heartbeat_misses=4
        ) as pool:
            whole = pool.execute(poly)
            victim = pool.worker_stats()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.05)
            degraded = pool.execute(poly)
            assert degraded.partial
            assert degraded.failed_shards == (0,)
            assert len(degraded.rows["_row_id"]) < len(whole.rows["_row_id"])
            assert issubclass(WorkerDied, StorageFault)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if pool.worker_stats()[0]["alive"]:
                    break
                time.sleep(0.05)
            recovered = pool.execute(poly)
            assert not recovered.partial
            assert _rows_identical(recovered.rows, whole.rows)
            counters = pool.counters()
            assert counters["worker_deaths"] >= 1
            assert counters["worker_respawns"] >= 1

    def test_partial_from_dead_worker_is_never_cached(self):
        data = _make_data(1500, seed=31)
        specs = KdPartitioner(2, buffer_pages=None).plan("uncached", data, DIMS)
        poly = _queries()[2]
        with ShardWorkerPool(
            specs, sample_pages=4, seed=0, heartbeat_s=0.1, heartbeat_misses=4
        ) as pool:
            with QueryService(None, pool, workers=2, queue_depth=8) as service:
                os.kill(pool.worker_stats()[1]["pid"], signal.SIGKILL)
                time.sleep(0.05)
                degraded = service.execute(poly)
                assert degraded.partial
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if pool.worker_stats()[1]["alive"]:
                        break
                    time.sleep(0.05)
                healed = service.execute(poly)
                # A cached partial would replay here; the partial-never-
                # cached rule must hold across the process boundary.
                assert not healed.partial
                assert not healed.cache_hit


# -- the network front door -------------------------------------------------


class _ServerHarness:
    """A QueryServer on a background event loop, for sync test code."""

    def __init__(self, service, **kwargs):
        self.service = service
        self.kwargs = kwargs
        self.server = None
        self.loop = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(15), "server failed to start"

    def _run(self):
        async def main():
            self.server = QueryServer(self.service, port=0, **self.kwargs)
            await self.server.start()
            self.loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_until_drained()

        asyncio.run(main())

    @property
    def address(self):
        return self.server.address

    def drain(self, timeout=30.0):
        asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop).result(
            timeout
        )
        self.thread.join(timeout)


@pytest.fixture(scope="module")
def served():
    """A thread-transport sharded service behind the TCP front door."""
    data = _make_data()
    shard_set = KdPartitioner(2, buffer_pages=None).partition("srv", data, DIMS)
    engine = ScatterGatherExecutor(shard_set, sample_pages=8, seed=0)
    service = QueryService(None, engine, workers=2, queue_depth=8).start()
    harness = _ServerHarness(service, max_inflight=2, page_rows=256)
    yield engine, service, harness
    if service.running:
        harness.drain()
    engine.close()


class TestFrontDoor:
    def test_handshake_carries_engine_identity(self, served):
        engine, _, harness = served
        host, port = harness.address
        with QueryClient(host, port, tenant="ident") as client:
            assert client.table_name == engine.table_name
            assert client.dims == engine.dims
            assert client.transport == "thread"
            assert client.server_info["layout_version"] == engine.layout_version

    def test_roundtrip_streams_rows_identically(self, served):
        engine, _, harness = served
        host, port = harness.address
        with QueryClient(host, port, tenant="rt") as client:
            for poly in _queries():
                remote = client.query(poly)
                local = engine.execute(poly)
                assert _rows_identical(remote.rows, local.rows)
                assert remote.stats.rows_returned == local.stats.rows_returned

    def test_large_result_spans_multiple_pages(self, served):
        engine, _, harness = served
        host, port = harness.address
        with QueryClient(host, port, tenant="pages") as client:
            remote = client.query(_queries()[2])  # the whole-table box
        # page_rows=256 and thousands of rows: streaming must reassemble.
        assert len(remote.rows["_row_id"]) > 256
        local = engine.execute(_queries()[2])
        assert _rows_identical(remote.rows, local.rows)

    def test_deadline_maps_to_typed_error(self, served):
        _, _, harness = served
        host, port = harness.address
        with QueryClient(host, port, tenant="dl") as client:
            with pytest.raises(DeadlineExceeded):
                client.query(_queries()[2], deadline=1e-9)
            # The connection survives a failed query.
            outcome = client.query(_queries()[0])
            assert outcome.stats is not None

    def test_per_tenant_inflight_cap_rejects_structured(self, served):
        _, _, harness = served
        host, port = harness.address
        # Submit 4 queries on one connection without reading responses:
        # the per-tenant cap (2) must reject the overflow with a
        # structured "rejected" error scoped to the tenant.
        from repro.net.wire import SocketChannel
        import socket as socket_mod

        sock = socket_mod.create_connection((host, port), timeout=10)
        channel = SocketChannel(sock)
        channel.send(MessageType.HELLO, {"tenant": "greedy"})
        assert channel.recv().type is MessageType.HELLO
        wire_poly = polyhedron_to_wire(_queries()[2])
        for request_id in range(1, 5):
            channel.send(
                MessageType.QUERY,
                {"request_id": request_id, "polyhedron": wire_poly},
            )
        rejected = 0
        done = set()
        while len(done) + rejected < 4:
            frame = channel.recv()
            assert frame is not None
            if frame.type is MessageType.ERROR:
                assert frame.header["kind"] == "rejected"
                assert frame.header["scope"] == "tenant"
                rejected += 1
            elif frame.type is MessageType.DONE:
                done.add(frame.header["request_id"])
        channel.close()
        assert rejected >= 1
        assert len(done) >= 2

    def test_report_and_ping(self, served):
        _, service, harness = served
        host, port = harness.address
        with QueryClient(host, port, tenant="obs") as client:
            pong = client.ping()
            assert pong["draining"] is False
            report = client.report()
            assert "service" in report and "engine" in report
            assert report["engine"]["queries"] >= 0

    def test_network_replay_matches_local_execution(self, served):
        engine, _, harness = served
        host, port = harness.address
        polys = _queries() * 3
        report = replay_over_network(host, port, polys, concurrency=3)
        assert report.completed == len(polys)
        assert not report.errors
        for idx, poly in enumerate(polys):
            assert _rows_identical(report.outcomes[idx].rows, engine.execute(poly).rows)
        assert report.report["service"]["completed"] >= len(polys)


class TestGracefulDrain:
    def test_drain_finishes_inflight_then_refuses(self):
        data = _make_data(1500, seed=41)
        shard_set = KdPartitioner(2, buffer_pages=None).partition("drn", data, DIMS)
        engine = ScatterGatherExecutor(shard_set, sample_pages=4, seed=0)
        service = QueryService(None, engine, workers=2, queue_depth=8).start()
        harness = _ServerHarness(service)
        host, port = harness.address
        with QueryClient(host, port, tenant="drain") as client:
            before = client.query(_queries()[2])
            assert len(before.rows["_row_id"]) > 0
            harness.drain()
            # The service stopped with drain=True: nothing was dropped.
            assert not service.running
            with pytest.raises((ServiceClosed, ConnectionError, OSError)):
                client.query(_queries()[0])
        with pytest.raises((ConnectionError, OSError)):
            QueryClient(host, port, tenant="late")
        engine.close()


class TestTransportSelection:
    def test_executor_constructor_dispatches_transports(self):
        data = _make_data(512, seed=43)
        partitioner = KdPartitioner(2, buffer_pages=None)
        specs = partitioner.plan("sel", data, DIMS)
        engine = ScatterGatherExecutor(specs=specs, transport="process")
        try:
            assert isinstance(engine, ShardWorkerPool)
            assert engine.transport == "process"
        finally:
            engine.close()
        with pytest.raises(ValueError):
            ScatterGatherExecutor(specs=specs, transport="carrier-pigeon")
        with pytest.raises(ValueError):
            ScatterGatherExecutor(transport="process")  # no specs

    def test_thread_executor_exposes_worker_stats(self):
        data = _make_data(512, seed=47)
        shard_set = KdPartitioner(2, buffer_pages=None).partition("ws", data, DIMS)
        with ScatterGatherExecutor(shard_set) as engine:
            engine.execute(_queries()[2])
            stats = engine.worker_stats()
            assert len(stats) == 2
            assert sum(entry["requests"] for entry in stats) == 2
            assert all(entry["pid"] is None for entry in stats)
