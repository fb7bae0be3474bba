"""The asyncio network front door: a TCP server in front of QueryService.

The paper's system serves SkyServer web traffic; this module is the
reproduction's network edge.  A :class:`QueryServer` listens on TCP and
speaks the same length-prefixed framing as the worker IPC
(:mod:`repro.net.wire`), translating frames into
:class:`~repro.service.QueryService` calls:

* **Sessions** -- each connection HELLOs with a tenant name and gets its
  own service :class:`~repro.service.session.Session`, so the service's
  per-session accounting and the report's ``sessions`` block see network
  tenants exactly like in-process clients.  The session closes with its
  connection, so a long-running server keeps one per open connection.
* **Admission and backpressure** -- queries pass two gates: a
  per-connection in-flight cap (``max_inflight``, the per-tenant gate)
  and the service's own :class:`~repro.service.AdmissionQueue`.  Both
  reject with a structured ``ERROR {kind: "rejected"}`` frame telling
  the client which gate refused, and a well-behaved client backs off and
  resubmits -- the same cooperative discipline as in-process replay.
* **Streaming** -- results leave as ``PAGE`` frames (raw column chunks)
  followed by one ``DONE`` frame with the rest of the query's record
  (:func:`~repro.net.wire.outcome_frames`), so a big result never
  materializes as one giant message.
* **Structured errors** -- service exceptions cross the wire as typed
  ERROR frames (``rejected`` / ``deadline`` / ``draining`` /
  ``query_fault`` / ``storage_fault``), which the client maps back to
  the exception types of :mod:`repro.service.errors`.
* **Graceful drain** -- SIGTERM (or :meth:`QueryServer.drain`) stops
  accepting connections, refuses new queries with ``draining``, lets
  every in-flight query finish streaming, then stops the service with
  ``drain=True``.  No accepted query is abandoned.

The event loop never blocks on query execution: each submitted ticket is
awaited via ``asyncio.to_thread``, so slow queries park on the service's
worker pool while the loop keeps serving CANCELs, PINGs, and other
connections.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal

from repro.net.wire import (
    FrameDecoder,
    FrameError,
    MessageType,
    encode_frame,
    error_to_wire,
    outcome_frames,
    polyhedron_from_wire,
    read_frame_async,
)
from repro.service.errors import AdmissionRejected, QueryFault, ServiceClosed
from repro.service.executor import QueryService

__all__ = ["QueryServer", "serve"]


def _service_error_to_wire(exc: BaseException) -> dict:
    """Map a service exception to a structured ERROR header."""
    if isinstance(exc, AdmissionRejected):
        return {
            "kind": "rejected",
            "type": "AdmissionRejected",
            "scope": "service",
            "depth": exc.depth,
            "message": str(exc),
        }
    if isinstance(exc, ServiceClosed):
        return {"kind": "draining", "type": "ServiceClosed", "message": str(exc)}
    if isinstance(exc, QueryFault):
        return {
            "kind": "query_fault",
            "type": "QueryFault",
            "query_id": exc.query_id,
            "tag": exc.tag,
            "cause_type": exc.cause_type,
            "message": str(exc),
        }
    # DeadlineExceeded and StorageFault (and anything else) already have
    # wire forms in the shared converter.
    return error_to_wire(exc)


def _json_safe(value):
    """Deep-copy a report into plain JSON types (numpy scalars included)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class _Connection:
    """Per-connection state: session, write lock, in-flight queries."""

    def __init__(self, tenant: str, session, max_inflight: int):
        self.tenant = tenant
        self.session = session
        self.max_inflight = max_inflight
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        self.cancelled: set[int] = set()

    @property
    def inflight(self) -> int:
        return len(self.tasks)


class QueryServer:
    """Serve a running :class:`~repro.service.QueryService` over TCP."""

    def __init__(
        self,
        service: QueryService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        page_rows: int = 4096,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.page_rows = page_rows
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._conn_ids = iter(range(1, 1 << 62))

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves port 0 after start)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress (or finished)."""
        return self._draining

    async def start(self) -> "QueryServer":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight queries, then stop the service.

        Idempotent; subsequent calls await the same drain.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let every accepted query finish streaming its result.
        pending = [t for conn in self._connections for t in conn.tasks]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        await asyncio.to_thread(self.service.stop, True)
        self._drained.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (POSIX loops only)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )

    async def serve_until_drained(self) -> None:
        """Block until a drain (signal- or call-initiated) completes."""
        await self._drained.wait()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        decoder = FrameDecoder()
        conn: _Connection | None = None
        try:
            hello = await read_frame_async(reader, decoder)
            if hello is None or hello.type is not MessageType.HELLO:
                writer.close()
                return
            tenant = str(hello.header.get("tenant") or f"net-{next(self._conn_ids)}")
            conn = _Connection(
                tenant,
                self.service.open_session(name=tenant),
                int(hello.header.get("max_inflight") or self.max_inflight),
            )
            conn.max_inflight = min(conn.max_inflight, self.max_inflight)
            self._connections.add(conn)
            engine = self.service.planner
            await self._send(
                writer,
                conn,
                MessageType.HELLO,
                {
                    "server": "repro-query-service",
                    "table": engine.table_name,
                    "dims": list(engine.dims),
                    "layout_version": engine.layout_version,
                    "transport": engine.transport,
                    "max_inflight": conn.max_inflight,
                    "session": conn.session.session_id,
                },
            )
            while True:
                frame = await read_frame_async(reader, decoder)
                if frame is None:
                    break
                if frame.type is MessageType.QUERY:
                    await self._handle_query(writer, conn, frame)
                elif frame.type is MessageType.CANCEL:
                    conn.cancelled.add(int(frame.header.get("request_id", -1)))
                elif frame.type is MessageType.PING:
                    await self._send(
                        writer,
                        conn,
                        MessageType.PONG,
                        {
                            "draining": self._draining,
                            "inflight": conn.inflight,
                            "session": conn.session.session_id,
                        },
                    )
                elif frame.type is MessageType.REPORT:
                    report = await asyncio.to_thread(self.service.report)
                    await self._send(
                        writer, conn, MessageType.REPORT, _json_safe(report)
                    )
                elif frame.type is MessageType.SHUTDOWN:
                    break
        except (ConnectionError, FrameError, asyncio.IncompleteReadError):
            pass
        finally:
            if conn is not None:
                if conn.tasks:
                    await asyncio.gather(*conn.tasks, return_exceptions=True)
                self._connections.discard(conn)
                self.service.sessions.close(conn.session.session_id)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _handle_query(self, writer, conn: _Connection, frame) -> None:
        request_id = int(frame.header["request_id"])
        if self._draining:
            await self._send_error(
                writer, conn, request_id, ServiceClosed("server is draining")
            )
            return
        if conn.inflight >= conn.max_inflight:
            # The per-tenant gate: reject *before* touching the shared
            # admission queue so one greedy tenant cannot fill it.
            header = {
                "kind": "rejected",
                "type": "AdmissionRejected",
                "scope": "tenant",
                "depth": conn.max_inflight,
                "message": (
                    f"tenant {conn.tenant!r} has {conn.inflight} queries in "
                    f"flight (cap {conn.max_inflight}); retry later"
                ),
                "request_id": request_id,
            }
            async with conn.write_lock:
                writer.write(encode_frame(MessageType.ERROR, header))
                await writer.drain()
            return
        try:
            polyhedron = polyhedron_from_wire(frame.header["polyhedron"])
            ticket = self.service.submit(
                polyhedron,
                session=conn.session,
                deadline=frame.header.get("deadline_s"),
                tag=str(frame.header.get("tag", "")),
            )
        except Exception as exc:
            await self._send_error(writer, conn, request_id, exc)
            return
        task = asyncio.ensure_future(
            self._stream_outcome(writer, conn, request_id, ticket)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    async def _stream_outcome(self, writer, conn, request_id: int, ticket) -> None:
        try:
            outcome = await asyncio.to_thread(ticket.result)
        except Exception as exc:
            with contextlib.suppress(ConnectionError):
                await self._send_error(writer, conn, request_id, exc)
            return
        if request_id in conn.cancelled:
            conn.cancelled.discard(request_id)
            with contextlib.suppress(ConnectionError):
                await self._send_error(
                    writer,
                    conn,
                    request_id,
                    None,
                    header={
                        "kind": "cancelled",
                        "type": "Cancelled",
                        "message": "request cancelled by client",
                    },
                )
            return
        try:
            for msg_type, header, blob in outcome_frames(
                outcome, self.page_rows, {"request_id": request_id}
            ):
                await self._send(writer, conn, msg_type, header, blob)
        except ConnectionError:
            pass

    async def _send(
        self, writer, conn: _Connection, msg_type, header, blob: bytes = b""
    ) -> None:
        async with conn.write_lock:
            writer.write(encode_frame(msg_type, header, blob))
            await writer.drain()

    async def _send_error(
        self, writer, conn, request_id: int, exc, header: dict | None = None
    ) -> None:
        if header is None:
            header = _service_error_to_wire(exc)
        header["request_id"] = request_id
        await self._send(writer, conn, MessageType.ERROR, header)


async def _serve_async(
    service: QueryService,
    host: str,
    port: int,
    *,
    max_inflight: int = 32,
    ready_callback=None,
) -> None:
    server = QueryServer(service, host=host, port=port, max_inflight=max_inflight)
    await server.start()
    server.install_signal_handlers()
    if ready_callback is not None:
        ready_callback(server)
    await server.serve_until_drained()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_inflight: int = 32,
    ready_callback=None,
) -> None:
    """Run the front door until a SIGTERM/SIGINT drain completes.

    ``ready_callback(server)`` fires once the listener is bound -- the
    CLI uses it to print the resolved address.
    """
    asyncio.run(
        _serve_async(
            service,
            host,
            port,
            max_inflight=max_inflight,
            ready_callback=ready_callback,
        )
    )
