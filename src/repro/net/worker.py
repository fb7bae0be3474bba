"""The shard worker process: one kd-subtree shard behind an IPC socket.

``worker_main`` is the entry point a :class:`~repro.net.pool.ShardWorkerPool`
forks/spawns per shard.  The worker builds its *own* engine stack from
the picklable :class:`~repro.shard.partitioner.ShardSpec` -- private
:class:`~repro.db.catalog.Database` (with the parent's buffer budget,
retry policy, and seeded fault injector, when configured), kd-tree
index, and :class:`~repro.core.planner.QueryPlanner` -- so query
execution runs with a whole Python interpreter, and GIL, to itself.

It is the process transport's far end of the one scatter-gather
coordinator (:class:`~repro.shard.coordinator.ShardCoordinator`): a
``BATCH`` frame carries this shard's member group, which runs through
the same shard-side executor the thread transport calls,
:func:`~repro.shard.coordinator.run_member_group`; ``INGEST`` and
``MERGE`` frames are the write RPCs.

Threading model: the main thread serves requests one at a time from an
internal queue; a reader thread drains the socket continuously so
``CANCEL`` frames and ``PING`` heartbeats are handled *while* a group
runs.  Cancellation is cooperative: the reader sets a per-member event
that the member's cancel check polls every page/node, the same check
the thread transport builds.

Result streaming: each member's rows leave in ``PAGE`` frames of
``page_rows`` rows each (raw column bytes, no text encoding), followed
by one ``DONE`` frame carrying the rest of the
:class:`~repro.core.planner.PlannedQuery` -- both written by
:func:`~repro.net.wire.outcome_frames` -- or one ``ERROR`` frame, so a
large result never needs to exist as one giant message on either side.
A memberless ``DONE`` closes the group with its shared-decode counters.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.planner import QueryPlanner
from repro.net.wire import (
    Frame,
    MessageType,
    SocketChannel,
    box_to_wire,
    columns_from_blob,
    error_to_wire,
    outcome_frames,
    polyhedron_from_wire,
)
from repro.service.executor import Deadline
from repro.shard.coordinator import cancellable, run_member_group
from repro.shard.partitioner import ShardSpec, build_shard

__all__ = ["WorkerConfig", "worker_main"]


@dataclass
class WorkerConfig:
    """Everything a worker process needs (picklable, spawn-safe).

    ``sample_pages`` is this shard's probe budget (the pool divides the
    whole-table budget by the shard count, as the thread executor does);
    ``seed`` is already offset by the shard id.
    """

    spec: ShardSpec
    crossover: float = 0.25
    sample_pages: int = 1
    seed: int = 0
    page_rows: int = 4096
    #: Forced access path for the shard's planner ("auto" = cost-based).
    engine: str = "auto"


class _InFlight:
    """Cancellation registry shared by the reader and executor threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: dict[tuple[int, int], threading.Event] = {}

    def register(self, request_id: int, member: int) -> threading.Event:
        event = threading.Event()
        with self._lock:
            self._events[(request_id, member)] = event
        return event

    def unregister(self, request_id: int, member: int) -> None:
        with self._lock:
            self._events.pop((request_id, member), None)

    def cancel(self, request_id: int, member: int) -> None:
        """Trip one member's event (a no-op once it has answered)."""
        with self._lock:
            event = self._events.get((request_id, member))
        if event is not None:
            event.set()


def _memberships_from_wire(header: dict) -> dict[str, np.ndarray] | None:
    """Decode an optional ``memberships`` mapping off a wire header."""
    payload = header.get("memberships")
    if not payload:
        return None
    return {
        col: np.asarray(values, dtype=np.float64)
        for col, values in payload.items()
    }


class _Worker:
    def __init__(self, config: WorkerConfig, channel: SocketChannel):
        self.config = config
        self.spec = config.spec
        self.channel = channel
        self.shard = build_shard(config.spec)
        self.planner = QueryPlanner(
            self.shard.index,
            crossover=config.crossover,
            sample_pages=max(1, config.sample_pages),
            seed=config.seed,
            engine=config.engine,
        )
        self.inflight = _InFlight()
        self.work: queue.Queue = queue.Queue()
        self.requests_served = 0
        self.busy_s = 0.0

    # -- reader thread ------------------------------------------------------

    def reader_loop(self) -> None:
        try:
            while True:
                frame = self.channel.recv()
                if frame is None:
                    break
                if frame.type is MessageType.CANCEL:
                    self.inflight.cancel(
                        frame.header["request_id"], frame.header.get("member")
                    )
                elif frame.type is MessageType.PING:
                    self.channel.send(MessageType.PONG, self._pong())
                elif frame.type is MessageType.SHUTDOWN:
                    self.work.put(None)
                    break
                else:
                    self.work.put(frame)
        except Exception:
            pass
        self.work.put(None)

    def _pong(self) -> dict:
        return {
            "shard_id": self.spec.shard_id,
            "pid": os.getpid(),
            "requests": self.requests_served,
            "busy_s": self.busy_s,
            "io": self.shard.database.io_stats.as_dict(),
        }

    # -- executor (main thread) ---------------------------------------------

    def run(self) -> None:
        reader = threading.Thread(
            target=self.reader_loop, name="worker-reader", daemon=True
        )
        reader.start()
        table = self.shard.table
        self.channel.send(
            MessageType.HELLO,
            {
                "shard_id": self.spec.shard_id,
                "pid": os.getpid(),
                "num_rows": self.spec.num_rows,
                "table": self.spec.name,
                # Result schema: the built table's columns (clustering
                # adds e.g. kd_leaf beyond the spec's input columns).
                "schema": [
                    [name, table.dtype_of(name).str] for name in table.column_names
                ]
                + [["_row_id", np.dtype(np.int64).str]],
            },
        )
        serve = {
            MessageType.BATCH: self._serve_batch,
            MessageType.INGEST: self._serve_ingest,
            MessageType.MERGE: self._serve_merge,
        }
        while True:
            frame = self.work.get()
            if frame is None:
                break
            handler = serve.get(frame.type)
            if handler is None:
                continue
            started = time.perf_counter()
            try:
                handler(frame)
            finally:
                self.busy_s += time.perf_counter() - started
                self.requests_served += 1

    def _reply(self, request_id: int, member: int | None, outcome) -> None:
        """Send one outcome: PAGE frames then DONE, or one ERROR frame."""
        if isinstance(outcome, BaseException):
            header = error_to_wire(outcome)
            header.update(request_id=request_id, member=member)
            self.channel.send(MessageType.ERROR, header)
            return
        routing = {"request_id": request_id, "member": member}
        for msg_type, header, blob in outcome_frames(outcome, self.config.page_rows, routing):
            if msg_type is MessageType.DONE:
                header.update(busy_s=self.busy_s, requests=self.requests_served)
            self.channel.send(msg_type, header, blob)

    def _serve_batch(self, frame: Frame) -> None:
        """This shard's member group: every member answers on its own,
        then a memberless DONE carries the shared-decode counters."""
        request_id = frame.header["request_id"]
        wire = frame.header["members"]
        ids = [m["member"] for m in wire]
        members = []
        for m in wire:
            event = self.inflight.register(request_id, m["member"])
            deadline_s = m.get("deadline_s")
            members.append(
                (
                    None if m.get("inside") else polyhedron_from_wire(m["polyhedron"]),
                    cancellable(
                        event,
                        Deadline(float(deadline_s)).check
                        if deadline_s is not None
                        else None,
                    ),
                    _memberships_from_wire(m),
                )
            )
        try:
            counters = run_member_group(
                self.shard.table,
                self.planner,
                members,
                lambda i, outcome: self._reply(request_id, ids[i], outcome),
            )
        finally:
            for member in ids:
                self.inflight.unregister(request_id, member)
        self.channel.send(
            MessageType.DONE,
            {"request_id": request_id, "member": None, "counters": counters},
        )

    # -- write path (serialized with queries on the main thread) ------------

    def _serve_ingest(self, frame: Frame) -> None:
        """Apply a delta-tier insert or delete on this shard's table.

        INGEST frames ride the same work queue as queries, so a write is
        never interleaved with a scan inside the worker; the table-level
        merge-on-read machinery handles cross-*process* visibility (the
        coordinator orders acks).  The reply carries the shard's new
        ``layout_version`` and delta fraction, which the coordinator
        keeps for the cache fingerprint and the merge trigger.
        """
        request_id = frame.header["request_id"]
        table = self.shard.table
        try:
            op = frame.header["op"]
            if op == "insert":
                data = columns_from_blob(frame.header["columns"], frame.blob)
                local = table.insert_rows(data)
                header = {"count": int(len(local))}
                blob = np.ascontiguousarray(local, dtype=np.int64).tobytes()
            elif op == "delete":
                ids = np.frombuffer(frame.blob, dtype=np.int64).copy()
                header = {"count": int(table.delete_rows(ids))}
                blob = b""
            else:
                raise ValueError(f"unknown ingest op {op!r}")
        except Exception as exc:
            self._reply(request_id, None, exc)
            return
        header["layout_version"], header["delta_fraction"] = self.shard.write_state()
        header.update(request_id=request_id, member=None, op=op)
        self.channel.send(MessageType.DONE, header, blob)

    def _serve_merge(self, frame: Frame) -> None:
        """Drain this shard's delta out-of-place and refresh the stack.

        The reply ships the new routing geometry -- row count and tight
        box -- so the coordinator can re-cut its routing state in place.
        """
        request_id = frame.header["request_id"]
        try:
            report = self.shard.merge()
        except Exception as exc:
            self._reply(request_id, None, exc)
            return
        layout_version, fraction = self.shard.write_state()
        self.channel.send(
            MessageType.DONE,
            {
                "request_id": request_id,
                "member": None,
                "report": report.as_dict(),
                "num_rows": int(self.shard.num_rows),
                "tight_box": box_to_wire(self.shard.tight_box),
                "layout_version": layout_version,
                "delta_fraction": fraction,
            },
        )


def worker_main(config: WorkerConfig, address) -> None:
    """Process entry point: build the shard, connect back, serve until EOF.

    ``address`` is a Unix-socket path (str) or a ``(host, port)`` tuple;
    the worker connects *back* to the pool's listener, which makes the
    scheme identical under fork and spawn start methods.
    """
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        address = tuple(address)
    sock.connect(address)
    channel = SocketChannel(sock)
    try:
        _Worker(config, channel).run()
    finally:
        channel.close()
