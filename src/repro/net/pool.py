"""The process transport: one worker process per kd-subtree shard.

:class:`ShardWorkerPool` carries the one scatter-gather coordinator
(:class:`~repro.shard.coordinator.ShardCoordinator` -- routing, the
gather, the write router, counters and ``layout_version``) over worker
**processes**: each shard lives in its own interpreter with its own GIL
and private :class:`~repro.db.catalog.Database`, built from a picklable
:class:`~repro.shard.partitioner.ShardSpec`, and the parent speaks the
length-prefixed binary protocol of :mod:`repro.net.wire` to it over a
per-worker socket.  Sending a shard its member group is one ``BATCH``
frame, cancelling a member is one ``CANCEL`` frame, and each member's
answer streams back as ``PAGE`` frames and a ``DONE`` (or one
``ERROR``), decoded by the worker's reader thread into the outcome the
gather folds; ``INGEST`` and ``MERGE`` frames are the write RPCs.

Lifecycle and failure model:

* **Heartbeats** -- a monitor thread pings every worker each
  ``heartbeat_s``; a worker that misses ``heartbeat_misses`` beats (or
  whose process exits) is declared dead, its socket torn down, and its
  in-flight requests failed with :class:`WorkerDied`.
* **Degraded partials** -- :class:`WorkerDied` subclasses
  :class:`~repro.db.errors.StorageFault`, so a dead worker degrades a
  query exactly like a dead shard does in thread mode: the query
  completes over the survivors with ``partial=True`` and the shard id in
  ``failed_shards``, and the service never caches the partial answer.
* **Respawn** -- the monitor automatically forks a replacement from the
  stored spec (bounded by ``max_respawns`` per worker) and replays the
  acknowledged writes into it, so a transient worker crash costs some
  partial answers, not the pool.
* **Cancellation** -- the coordinator polls each member's check while
  gathering and sends ``CANCEL`` frames the moment one raises.  When the
  check is a bound :class:`~repro.service.executor.Deadline` method the
  remaining budget also rides along in the request, so workers enforce
  the deadline locally between coordinator polls.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import socket
import tempfile
import threading
import time
from dataclasses import replace

import numpy as np

from repro.core.kdtree import cluster
from repro.db.errors import StorageFault
from repro.db.stats import IOStats
from repro.geometry.boxes import Box
from repro.ingest.manager import DEFAULT_MERGE_THRESHOLD
from repro.net.wire import (
    MessageType,
    SocketChannel,
    box_from_wire,
    columns_from_blob,
    columns_to_blob,
    error_from_wire,
    outcome_from_wire,
    polyhedron_to_wire,
)
from repro.net.worker import WorkerConfig, worker_main
from repro.shard.coordinator import ShardCoordinator
from repro.shard.partitioner import ShardSet, ShardSpec

__all__ = ["ShardWorkerPool", "WorkerDied"]


class WorkerDied(StorageFault):
    """A shard worker process died with requests in flight.

    Subclassing :class:`~repro.db.errors.StorageFault` makes a worker
    death indistinguishable from an unrecoverable shard-storage fault to
    everything above the pool: the query degrades to a flagged partial
    over the surviving shards, and partials are never cached.
    """


def _remaining_deadline(cancel_check) -> float | None:
    """Extract a forwardable budget when the check is Deadline.check."""
    owner = getattr(cancel_check, "__self__", None)
    remaining = getattr(owner, "remaining", None)
    if callable(remaining):
        try:
            return max(0.0, float(remaining()))
        except Exception:
            return None
    return None


def _member_wire(member: int, polyhedron, check, memberships) -> dict:
    """One member of a BATCH request (``polyhedron=None``: the shard is INSIDE)."""
    return {
        "member": member,
        "inside": polyhedron is None,
        "deadline_s": _remaining_deadline(check),
        "memberships": (
            {
                col: [float(v) for v in np.asarray(values).ravel()]
                for col, values in memberships.items()
            }
            if memberships
            else None
        ),
        "polyhedron": None if polyhedron is None else polyhedron_to_wire(polyhedron),
    }


class _WorkerHandle:
    """Parent-side state of one worker: process, socket, response routing."""

    def __init__(self, pool: "ShardWorkerPool", config: WorkerConfig):
        self.pool = pool
        self.config = config
        self.spec = config.spec
        self.process = None
        self.channel: SocketChannel | None = None
        self.alive = False
        self.pid: int | None = None
        self._lock = threading.Lock()
        # request_id -> (out_queue, member -> PAGE pieces so far): where
        # this worker's outcomes for that request are delivered.
        self._routes: dict[int, tuple[queue.Queue, dict]] = {}
        self._generation = 0
        self.respawns = 0
        self.requests = 0
        self.busy_s = 0.0
        self.last_pong = 0.0
        self.io: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def attach(self, process, channel: SocketChannel, pid: int) -> None:
        """Adopt a freshly accepted worker connection and start its reader."""
        with self._lock:
            self.process = process
            self.channel = channel
            self.pid = pid
            self.alive = True
            self._generation += 1
            generation = self._generation
        threading.Thread(
            target=self._reader_loop,
            args=(channel, generation),
            name=f"pool-reader-{self.spec.shard_id}",
            daemon=True,
        ).start()

    def mark_dead(self) -> None:
        """Declare the worker dead and fail everything in flight."""
        with self._lock:
            if not self.alive and self.channel is None:
                return
            self.alive = False
            channel, self.channel = self.channel, None
            routes, self._routes = self._routes, {}
        if channel is not None:
            channel.close()
        shard_id = self.spec.shard_id
        for out, _ in routes.values():
            out.put((shard_id, None, WorkerDied(f"shard worker {shard_id} died mid-request")))
        self.pool._note(worker_deaths=1)

    # -- request routing ----------------------------------------------------

    def send_request(
        self,
        msg_type: MessageType,
        header: dict,
        out: queue.Queue,
        blob: bytes = b"",
    ) -> bool:
        """Register the response route and send; False if the worker is down."""
        request_id = header["request_id"]
        with self._lock:
            if not self.alive or self.channel is None:
                return False
            self._routes[request_id] = (out, {})
            channel = self.channel
        try:
            channel.send(msg_type, header, blob)
            return True
        except OSError:
            self.forget(request_id)
            self.mark_dead()
            return False

    def forget(self, request_id: int) -> None:
        """Drop the route: late frames for this request are discarded."""
        with self._lock:
            self._routes.pop(request_id, None)

    def _send_best_effort(self, msg_type: MessageType, header: dict) -> bool:
        """Send unless the worker is down; False if the send failed."""
        with self._lock:
            channel = self.channel if self.alive else None
        if channel is not None:
            try:
                channel.send(msg_type, header)
            except OSError:
                return False
        return True

    def cancel(self, request_id: int, member: int) -> None:
        """Best-effort CANCEL of one member (the worker may already be dead)."""
        self._send_best_effort(
            MessageType.CANCEL, {"request_id": request_id, "member": member}
        )

    def ping(self) -> None:
        """Best-effort heartbeat request; a broken socket means a dead worker."""
        if not self._send_best_effort(MessageType.PING, {}):
            self.mark_dead()

    def shutdown(self) -> None:
        """Ask the worker to exit cleanly."""
        self._send_best_effort(MessageType.SHUTDOWN, {})

    # -- reader thread ------------------------------------------------------

    def _reader_loop(self, channel: SocketChannel, generation: int) -> None:
        """Turn response frames into ``(shard_id, member, outcome)`` items.

        A member's PAGE frames are buffered until its DONE, which yields
        its :class:`~repro.core.planner.PlannedQuery`; an ERROR yields the
        exception.  A memberless DONE or ERROR ends the request: a batch
        trailer yields its counters, any other reply its frame.
        """
        shard_id = self.spec.shard_id
        try:
            while True:
                frame = channel.recv()
                if frame is None:
                    break
                header = frame.header
                if frame.type is MessageType.PONG:
                    self.last_pong = time.monotonic()
                    self.requests = int(header.get("requests", self.requests))
                    self.busy_s = float(header.get("busy_s", self.busy_s))
                    self.io = header.get("io", self.io)
                    continue
                if "busy_s" in header:
                    self.busy_s = float(header["busy_s"])
                    self.requests = int(header["requests"]) + 1
                member = header.get("member")
                request_id = header.get("request_id")
                with self._lock:
                    if member is None and frame.type is not MessageType.PAGE:
                        route = self._routes.pop(request_id, None)
                    else:
                        route = self._routes.get(request_id)
                if route is None:
                    continue
                out, pieces = route
                if frame.type is MessageType.PAGE:
                    pieces.setdefault(member, []).append(
                        columns_from_blob(header["columns"], frame.blob)
                    )
                    continue
                if frame.type is MessageType.ERROR:
                    outcome = error_from_wire(header)
                elif member is not None:
                    outcome = outcome_from_wire(header, pieces.pop(member, []))
                else:
                    outcome = header.get("counters", frame)
                out.put((shard_id, member, outcome))
        except Exception:
            pass
        with self._lock:
            current = generation == self._generation
        if current:
            self.mark_dead()

    def stats(self) -> dict:
        """Per-worker utilization snapshot (for replay summaries)."""
        return {
            "shard_id": self.spec.shard_id,
            "pid": self.pid,
            "alive": self.alive,
            "requests": self.requests,
            "busy_s": self.busy_s,
            "respawns": self.respawns,
        }


class ShardWorkerPool(ShardCoordinator):
    """One worker process per kd-subtree shard, behind one query engine.

    Parameters
    ----------
    specs:
        The partitioning plan (see :meth:`~repro.shard.KdPartitioner.plan`).
        Each spec ships to its worker, which builds the shard's database
        and kd-tree on its side of the process boundary.
    crossover / sample_pages / seed:
        Planner knobs, divided across shards exactly as the thread
        executor divides them (``sample_pages`` is the whole-table probe
        budget; each worker's planner is seeded ``seed + shard_id``).
    use_tight_boxes:
        Router pruning family (see :class:`~repro.shard.ShardRouter`).
    start_method:
        ``multiprocessing`` start method; ``"fork"`` (default where
        available) shares the parent's page data copy-on-write, while
        ``"spawn"`` pickles every spec -- both work because specs are
        spawn-safe by construction.
    heartbeat_s / heartbeat_misses:
        Liveness probing cadence and tolerance before a worker is
        declared dead and respawned.
    max_respawns:
        Per-worker automatic respawn budget.
    page_rows:
        Result-streaming chunk size (rows per PAGE frame).
    """

    transport = "process"
    # The coordinator's entry points, bound in this class's own namespace
    # so per-class instrumentation (benchmarks/e2e/trace.py patches
    # ``ShardWorkerPool.__dict__``) times the process transport alone.
    execute = ShardCoordinator.execute
    execute_batch = ShardCoordinator.execute_batch

    def __init__(
        self,
        specs: list[ShardSpec],
        *,
        crossover: float = 0.25,
        sample_pages: int = 8,
        seed: int = 0,
        use_tight_boxes: bool = True,
        engine: str = "auto",
        start_method: str | None = None,
        heartbeat_s: float = 0.5,
        heartbeat_misses: int = 6,
        max_respawns: int = 8,
        page_rows: int = 4096,
        spawn_timeout_s: float = 60.0,
        poll_s: float = 0.01,
    ):
        if not specs:
            raise ValueError("a worker pool needs at least one shard spec")
        # The result schema starts from the specs and is replaced by the
        # richer one the first worker reports in HELLO (a built shard
        # table can carry clustering columns beyond the input, e.g. kd_leaf).
        super().__init__(
            ShardSet(specs[0].base_name, specs[0].dims, specs),
            use_tight_boxes,
            specs[0].column_dtypes(),
            counters=("worker_deaths", "worker_respawns", "repartitions"),
        )
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self.max_respawns = max_respawns
        self.spawn_timeout_s = spawn_timeout_s
        self.poll_s = poll_s
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        shard_probe = max(1, sample_pages // len(specs))
        self._handles = [
            _WorkerHandle(
                self,
                WorkerConfig(
                    spec=spec,
                    crossover=crossover,
                    sample_pages=shard_probe,
                    seed=seed + spec.shard_id,
                    page_rows=page_rows,
                    engine=engine,
                ),
            )
            for spec in self.specs
        ]
        self._request_ids = itertools.count(1)
        # Every acknowledged mutation is mirrored into a per-shard op log
        # so a respawned worker -- which rebuilds from its
        # (immutable-columns) spec -- replays its way back to the
        # acknowledged state, with the same row ids (delta ids are
        # assigned sequentially and the kd build and merge are
        # deterministic).
        self._spawn_lock = threading.Lock()
        self._oplog: list[list[tuple]] = [[] for _ in specs]
        self._recuts: list[int] = [0] * len(specs)
        self._listener, self._address, self._socket_dir = self._make_listener()
        try:
            for handle in self._handles:
                self._spawn(handle)
        except Exception:
            self.close()
            raise
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._monitor.start()

    @property
    def specs(self) -> list[ShardSpec]:
        """The current shard specs, in shard-id order."""
        return self.shard_set.shards

    # -- process management -------------------------------------------------

    def _make_listener(self):
        if hasattr(socket, "AF_UNIX"):
            sock_dir = tempfile.mkdtemp(prefix="repro-pool-")
            path = os.path.join(sock_dir, "pool.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(len(self.specs) + 4)
            return listener, path, sock_dir
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(len(self.specs) + 4)
        return listener, listener.getsockname(), None

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one worker and wait for its HELLO."""
        process = self._ctx.Process(
            target=worker_main,
            args=(handle.config, self._address),
            name=f"shard-worker-{handle.spec.shard_id}",
            daemon=True,
        )
        process.start()
        self._listener.settimeout(self.spawn_timeout_s)
        try:
            conn, _ = self._listener.accept()
        except OSError:
            process.terminate()
            raise TimeoutError(
                f"shard worker {handle.spec.shard_id} did not connect within "
                f"{self.spawn_timeout_s:.0f}s"
            ) from None
        conn.settimeout(self.spawn_timeout_s)
        channel = SocketChannel(conn)
        try:
            hello = channel.recv()
        except (OSError, TimeoutError):
            channel.close()
            process.terminate()
            raise TimeoutError(
                f"shard worker {handle.spec.shard_id} connected but sent no HELLO"
            ) from None
        if hello is None or hello.type is not MessageType.HELLO:
            channel.close()
            process.terminate()
            raise RuntimeError(
                f"shard worker {handle.spec.shard_id} spoke a bad handshake"
            )
        conn.settimeout(None)
        schema = hello.header.get("schema")
        if schema:
            self._schema = {name: np.dtype(code) for name, code in schema}
        try:
            self._replay_oplog(handle.spec.shard_id, channel)
        except Exception as exc:
            channel.close()
            process.terminate()
            raise RuntimeError(
                f"shard worker {handle.spec.shard_id} failed op-log replay: {exc}"
            ) from None
        handle.last_pong = time.monotonic()
        handle.attach(process, channel, pid=int(hello.header.get("pid", 0)))

    def _replay_oplog(self, shard_id: int, channel: SocketChannel) -> None:
        """Re-apply acknowledged mutations to a freshly respawned worker.

        Runs synchronously on the bare channel *before* the worker is
        attached (no reader thread yet, so no query can observe the
        half-replayed shard).  Replay is idempotent across respawns
        because every respawn rebuilds the shard from the spec's columns
        first: the op sequence always starts from the same state, so it
        reproduces the same delta row ids and merge generations that
        were acknowledged to clients.
        """
        for entry in self._oplog[shard_id]:
            request_id = next(self._request_ids)
            if entry[0] == "insert":
                _, meta, blob = entry
                channel.send(
                    MessageType.INGEST,
                    {"request_id": request_id, "op": "insert", "columns": meta},
                    blob,
                )
            elif entry[0] == "delete":
                channel.send(
                    MessageType.INGEST,
                    {"request_id": request_id, "op": "delete"},
                    entry[1],
                )
            else:
                channel.send(MessageType.MERGE, {"request_id": request_id})
            while True:
                reply = channel.recv()
                if reply is None:
                    raise RuntimeError("worker closed the channel mid-replay")
                if reply.type is MessageType.ERROR:
                    raise RuntimeError(
                        f"replayed {entry[0]} failed: {reply.header.get('message')}"
                    )
                if (
                    reply.type is MessageType.DONE
                    and reply.header.get("request_id") == request_id
                ):
                    break

    def _monitor_loop(self) -> None:
        """Heartbeat, dead-worker detection, and automatic respawn."""
        while not self._monitor_stop.wait(self.heartbeat_s):
            for handle in self._handles:
                if self._monitor_stop.is_set():
                    return
                if handle.alive:
                    process = handle.process
                    stale = (
                        time.monotonic() - handle.last_pong
                        > self.heartbeat_s * self.heartbeat_misses
                    )
                    if process is not None and not process.is_alive():
                        handle.mark_dead()
                    elif stale:
                        # Wedged: no PONG for several beats. Kill it so
                        # in-flight requests fail fast, then respawn.
                        if process is not None:
                            process.terminate()
                        handle.mark_dead()
                    else:
                        handle.ping()
                if not handle.alive and handle.respawns < self.max_respawns:
                    try:
                        with self._spawn_lock:
                            if handle.alive:
                                continue
                            self._spawn(handle)
                    except (TimeoutError, RuntimeError, OSError):
                        continue
                    handle.respawns += 1
                    self._note(worker_respawns=1)

    def close(self) -> None:
        """Shut every worker down and reap the processes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        stop = getattr(self, "_monitor_stop", None)
        if stop is not None:
            stop.set()
            self._monitor.join(timeout=5.0)
        for handle in self._handles:
            handle.shutdown()
        deadline = time.monotonic() + 5.0
        for handle in self._handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for handle in self._handles:
            handle.mark_dead()
        self._listener.close()
        if self._socket_dir is not None:
            try:
                os.unlink(self._address)
            except OSError:
                pass
            try:
                os.rmdir(self._socket_dir)
            except OSError:
                pass

    # -- transport ----------------------------------------------------------

    def _send_group(self, shard_id: int, group: list, out: queue.Queue) -> int:
        request_id = next(self._request_ids)
        header = {
            "request_id": request_id,
            "members": [_member_wire(*member) for member in group],
        }
        if not self._handles[shard_id].send_request(MessageType.BATCH, header, out):
            raise WorkerDied(f"shard worker {shard_id} is down (respawning)")
        return request_id

    def _cancel(self, shard_id: int, request_id: int, member: int) -> None:
        self._handles[shard_id].cancel(request_id, member)

    def _shard_rpc(
        self, shard_id: int, msg_type: MessageType, header: dict, blob: bytes = b""
    ) -> tuple:
        """One synchronous request/response round with a shard worker.

        Returns ``(reply, outcomes)``: the terminal payload (a DONE frame,
        or a batch's counters) and the member outcomes that preceded it.
        Worker death or a worker-side error surfaces as the exception.
        """
        handle = self._handles[shard_id]
        out: queue.Queue = queue.Queue()
        request_id = next(self._request_ids)
        header = dict(header, request_id=request_id)
        if not handle.send_request(msg_type, header, out, blob=blob):
            raise WorkerDied(f"shard worker {shard_id} is down (respawning)")
        deadline = time.monotonic() + self.spawn_timeout_s
        outcomes: dict[int, object] = {}
        while True:
            try:
                _, member, outcome = out.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                handle.forget(request_id)
                raise WorkerDied(f"shard worker {shard_id} timed out") from None
            if member is not None:
                outcomes[member] = outcome
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                return outcome, outcomes

    def _insert_rpc(self, shard_id: int, rows: dict) -> tuple:
        meta, blob = columns_to_blob(rows)
        done, _ = self._shard_rpc(
            shard_id, MessageType.INGEST, {"op": "insert", "columns": meta}, blob
        )
        self._oplog[shard_id].append(("insert", meta, blob))
        return (
            np.frombuffer(done.blob, dtype=np.int64),
            done.header["layout_version"],
            done.header["delta_fraction"],
        )

    def _delete_rpc(self, shard_id: int, local_ids: np.ndarray) -> tuple:
        blob = np.ascontiguousarray(local_ids, dtype=np.int64).tobytes()
        done, _ = self._shard_rpc(shard_id, MessageType.INGEST, {"op": "delete"}, blob)
        self._oplog[shard_id].append(("delete", blob))
        return (
            int(done.header["count"]),
            done.header["layout_version"],
            done.header["delta_fraction"],
        )

    def _merge_rpc(self, shard_id: int) -> tuple:
        done, _ = self._shard_rpc(shard_id, MessageType.MERGE, {})
        self._oplog[shard_id].append(("merge",))
        header = done.header
        return (
            header["report"],
            int(header["num_rows"]),
            box_from_wire(header["tight_box"]),
            header["layout_version"],
            header["delta_fraction"],
        )

    # -- re-cuts ------------------------------------------------------------

    def repartition(self, shard_id: int) -> dict:
        """Re-cut one shard from its merged rows and respawn its worker.

        Fetches the shard's current merge-on-read contents over the wire
        (one INSIDE member: main + delta, tombstones suppressed),
        rebuilds the :class:`~repro.shard.partitioner.ShardSpec` around
        them -- same partition cell and post-order range, fresh tight box
        and row count -- and restarts that worker process from the new
        spec.  The other shards keep serving queries throughout;
        in-flight queries on the re-cut shard degrade to flagged
        partials, exactly as a worker crash does.
        """
        with self._write_lock:
            sid = int(shard_id)
            old = self.specs[sid]
            _, outcomes = self._shard_rpc(
                sid,
                MessageType.BATCH,
                {"members": [_member_wire(0, None, None, None)]},
            )
            if isinstance(outcomes[0], BaseException):
                raise outcomes[0]
            columns = {c: outcomes[0].rows[c] for c in old.columns}
            num_rows = len(next(iter(columns.values()))) if columns else 0
            if num_rows == 0:
                raise ValueError(
                    f"cannot repartition shard {sid}: no live rows to re-cut"
                )
            pts = np.column_stack(
                [np.asarray(columns[d], dtype=np.float64) for d in old.dims]
            )
            # Re-cluster the new rows, so the respawn (and every later
            # crash respawn) installs pages instead of re-running the
            # build.
            layout = old.clustering.layout
            new_spec = replace(
                old,
                columns=columns,
                num_rows=num_rows,
                tight_box=Box(pts.min(axis=0), pts.max(axis=0)),
                clustering=cluster(
                    columns,
                    old.dims,
                    levels=min(layout.num_levels, max(1, int(num_rows).bit_length())),
                    axis_policy=layout.axis_policy,
                ),
            )
            with self._spawn_lock:
                handle = self._handles[sid]
                handle.shutdown()
                process = handle.process
                if process is not None:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=1.0)
                handle.mark_dead()
                self.specs[sid] = new_spec
                handle.config = replace(handle.config, spec=new_spec)
                handle.spec = new_spec
                self._oplog[sid] = []
                self._fractions[sid] = 0.0
                self.router.note_delta(sid, None)
                self._recuts[sid] += 1
                # A respawned worker starts back at generation 0; the
                # re-cut counter keeps the fingerprint moving forward.
                self._epochs[sid] = f"r{self._recuts[sid]}:g0.e0"
                self._spawn(handle)
            self.shard_set.refresh()
        self._note(repartitions=1)
        return {"shard_id": sid, "num_rows": num_rows}

    def maybe_repartition(
        self, threshold: float = DEFAULT_MERGE_THRESHOLD
    ) -> list[dict]:
        """Online repartitioning: re-cut and respawn every shard whose
        delta fraction crossed ``threshold``."""
        return [
            self.repartition(spec.shard_id)
            for spec in list(self.specs)
            if self._fractions[spec.shard_id]
            and self._fractions[spec.shard_id] >= threshold
        ]

    def knn(self, point, k, cancel_check=None):
        """k-NN is not served over the process transport (yet)."""
        raise NotImplementedError(
            "k-NN queries are not supported over transport='process'; "
            "use the thread-transport ScatterGatherExecutor"
        )

    # -- observability ------------------------------------------------------

    def worker_stats(self) -> list[dict]:
        """Per-worker utilization snapshots (requests, busy time, respawns)."""
        return [handle.stats() for handle in self._handles]

    def io_stats(self) -> IOStats:
        """Aggregate worker-side I/O counters via a heartbeat round."""
        asked = time.monotonic()
        for handle in self._handles:
            handle.ping()
        deadline = asked + 1.0
        while time.monotonic() < deadline:
            if all(
                handle.last_pong >= asked
                for handle in self._handles
                if handle.alive
            ):
                break
            time.sleep(0.005)
        total = IOStats()
        for handle in self._handles:
            if handle.io:
                total.add(**handle.io)
        return total
