"""A thin synchronous client for the network front door.

:class:`QueryClient` opens one TCP connection, HELLOs with a tenant
name, and exposes a blocking ``query()`` that streams PAGE frames into
the same :class:`~repro.core.planner.PlannedQuery` record the in-process
service hands its clients, cache hit, queue wait and session included.
Structured ERROR frames map back to the exception types of
:mod:`repro.service.errors`, so client code handles backpressure and
deadlines identically whether it talks to a service in-process or over
the wire.

One client is one conversation: ``query()`` is serial per connection
(requests do not interleave on a single socket).  Concurrency comes from
opening more clients -- which is exactly what
:func:`replay_over_network` does, through the in-process replay's own
driver (:func:`~repro.service.replay.drive_replay`), so their reports
are comparable.
"""

from __future__ import annotations

import contextlib
import socket

import numpy as np

from repro.core.planner import PlannedQuery
from repro.geometry.halfspace import Polyhedron
from repro.net.wire import (
    MessageType,
    SocketChannel,
    columns_from_blob,
    error_from_wire,
    outcome_from_wire,
    polyhedron_to_wire,
)
from repro.service.errors import (
    AdmissionRejected,
    QueryFault,
    ServiceClosed,
)
from repro.service.replay import ReplayReport, drive_replay

__all__ = ["QueryClient", "replay_over_network"]


def _error_from_header(header: dict) -> BaseException:
    """Map a structured ERROR frame back to a service exception."""
    kind = header.get("kind")
    if kind == "rejected":
        exc = AdmissionRejected(int(header.get("depth", 0)))
        exc.scope = header.get("scope", "service")
        return exc
    if kind == "draining":
        return ServiceClosed(header.get("message", "server is draining"))
    if kind == "query_fault":
        cause = RuntimeError(header.get("cause_type", "StorageFault"))
        return QueryFault(
            int(header.get("query_id", -1)), header.get("tag", ""), cause
        )
    if kind == "cancelled":
        return RuntimeError(header.get("message", "request cancelled"))
    # deadline / storage_fault / error share the engine-level converter.
    return error_from_wire(header)


class QueryClient:
    """One tenant connection to a :class:`~repro.net.server.QueryServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "",
        timeout: float | None = None,
    ):
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(timeout)
        self.channel = SocketChannel(sock)
        self._request_ids = iter(range(1, 1 << 62))
        self.channel.send(MessageType.HELLO, {"tenant": tenant})
        hello = self.channel.recv()
        if hello is None or hello.type is not MessageType.HELLO:
            self.channel.close()
            raise ConnectionError("server did not complete the handshake")
        self.server_info = dict(hello.header)
        self.tenant = tenant
        self._closed = False

    # -- introspection ------------------------------------------------------

    @property
    def table_name(self) -> str:
        """The served table's logical name (from the handshake)."""
        return self.server_info.get("table", "")

    @property
    def dims(self) -> list[str]:
        """Coordinate columns of the served table."""
        return list(self.server_info.get("dims", []))

    @property
    def transport(self) -> str:
        """The server engine's execution transport (thread/process/...)."""
        return self.server_info.get("transport", "unknown")

    # -- requests -----------------------------------------------------------

    def query(
        self,
        polyhedron: Polyhedron,
        *,
        deadline: float | None = None,
        tag: str = "",
    ) -> PlannedQuery:
        """Run one query and gather its streamed result (blocking)."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._request_ids)
        self.channel.send(
            MessageType.QUERY,
            {
                "request_id": request_id,
                "polyhedron": polyhedron_to_wire(polyhedron),
                "deadline_s": deadline,
                "tag": tag,
            },
        )
        pieces: list[dict[str, np.ndarray]] = []
        while True:
            frame = self.channel.recv()
            if frame is None:
                raise ConnectionError("server closed the connection mid-query")
            if frame.header.get("request_id") != request_id:
                continue
            if frame.type is MessageType.PAGE:
                pieces.append(columns_from_blob(frame.header["columns"], frame.blob))
            elif frame.type is MessageType.ERROR:
                raise _error_from_header(frame.header)
            elif frame.type is MessageType.DONE:
                return outcome_from_wire(frame.header, pieces)

    def ping(self) -> dict:
        """Round-trip a PING; returns the server's PONG header."""
        self.channel.send(MessageType.PING, {})
        frame = self.channel.recv()
        if frame is None or frame.type is not MessageType.PONG:
            raise ConnectionError("no PONG from server")
        return dict(frame.header)

    def report(self) -> dict:
        """Fetch the service's full self-report."""
        self.channel.send(MessageType.REPORT, {})
        frame = self.channel.recv()
        if frame is None or frame.type is not MessageType.REPORT:
            raise ConnectionError("no REPORT from server")
        return dict(frame.header)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if not self._closed:
            self._closed = True
            self.channel.close()

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def replay_over_network(
    host: str,
    port: int,
    queries,
    *,
    dims: list[str] | None = None,
    concurrency: int = 8,
    deadline: float | None = None,
    retry_sleep_s: float = 0.001,
    tenant_prefix: str = "replay-net",
) -> ReplayReport:
    """Replay a workload through the network front door.

    The in-process replay's driver over TCP: ``concurrency`` threads each
    own one connection (one tenant), send their share of the queries
    round-robin by index, back off and retry on
    :class:`~repro.service.errors.AdmissionRejected`, and collect
    failures instead of raising.  The returned report carries the
    server's own ``report()`` so utilization is visible client-side.
    """

    @contextlib.contextmanager
    def connect(worker_idx: int):
        with QueryClient(host, port, tenant=f"{tenant_prefix}-{worker_idx}") as client:

            def send(polyhedron: Polyhedron, tag: str):
                outcome = client.query(polyhedron, deadline=deadline, tag=tag)
                return lambda: outcome

            yield send

    def report() -> dict:
        try:
            with QueryClient(host, port, tenant=f"{tenant_prefix}-report") as client:
                return client.report()
        except (ConnectionError, OSError):
            return {}

    return drive_replay(
        queries,
        dims=dims,
        concurrency=concurrency,
        retry_sleep_s=retry_sleep_s,
        connect=connect,
        report=report,
    )
