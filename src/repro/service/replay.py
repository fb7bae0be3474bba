"""Workload replay: Figure 2 traffic pushed through the query service.

The paper's evidence for the whole design is months of live SkyServer
traffic (§2, Figure 2); :func:`replay_workload` is the reproduction's
traffic generator.  It takes the queries of
:class:`repro.datasets.workload.QueryWorkload` (or raw polyhedra),
spreads them over ``concurrency`` client threads each with its own
session, and drives them through a running :class:`QueryService`,
honoring admission backpressure by retrying rejected submissions.  The
returned report aligns results with the input order, so a serial rerun
can be compared row for row.  :func:`drive_replay` is the one client
driver: the in-process replay and the network replay
(:func:`~repro.net.client.replay_over_network`) differ only in how a
client opens and sends one query.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.planner import PlannedQuery, QueryEngine
from repro.geometry.halfspace import Polyhedron
from repro.service.errors import AdmissionRejected
from repro.service.executor import QueryService

__all__ = ["ReplayReport", "drive_replay", "replay_workload", "run_serial", "rows_equal"]


def _as_polyhedron(query, dims: list[str] | None) -> Polyhedron:
    """Accept a Polyhedron or anything with a ``.polyhedron(dims)`` method."""
    if isinstance(query, Polyhedron):
        return query
    return query.polyhedron(dims)


@dataclass
class ReplayReport:
    """Outcome of one replay run, aligned with the input query order."""

    outcomes: list[PlannedQuery | None]
    errors: list[tuple[int, BaseException]]
    wall_time_s: float
    concurrency: int
    resubmissions: int
    report: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Queries that returned a result."""
        return sum(1 for outcome in self.outcomes if outcome is not None)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per wall-clock second."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.completed / self.wall_time_s

    def rows(self, index: int) -> dict:
        """Result rows of the ``index``-th input query."""
        outcome = self.outcomes[index]
        if outcome is None:
            raise LookupError(f"query {index} did not complete")
        return outcome.rows


def drive_replay(
    queries,
    *,
    dims: list[str] | None,
    concurrency: int,
    retry_sleep_s: float,
    connect,
    report,
) -> ReplayReport:
    """Run ``concurrency`` client threads over ``queries`` and report.

    Client ``i`` takes the queries at indices ``i, i + concurrency, ...``.
    ``connect(i)`` is a context manager that yields the client's
    ``send(polyhedron, tag)``, which returns a zero-argument callable for
    the outcome.  A client sends its whole share before it collects any
    outcome, retrying each send on :class:`AdmissionRejected`; failures
    are collected, not raised.  ``report()`` supplies the server's
    self-report once every client is done.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    polyhedra = [_as_polyhedron(q, dims) for q in queries]
    outcomes: list[PlannedQuery | None] = [None] * len(polyhedra)
    errors: list[tuple[int, BaseException]] = []
    resubmissions = [0] * concurrency

    def client(worker_idx: int) -> None:
        with connect(worker_idx) as send:
            pending = []
            for idx in range(worker_idx, len(polyhedra), concurrency):
                while True:
                    try:
                        pending.append((idx, send(polyhedra[idx], f"q{idx}")))
                        break
                    except AdmissionRejected:
                        resubmissions[worker_idx] += 1
                        time.sleep(retry_sleep_s)
                    except BaseException as exc:
                        errors.append((idx, exc))
                        break
            for idx, outcome in pending:
                try:
                    outcomes[idx] = outcome()
                except BaseException as exc:
                    errors.append((idx, exc))

    started = time.monotonic()
    threads = [
        threading.Thread(target=client, args=(i,), name=f"replay-client-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - started
    errors.sort(key=lambda pair: pair[0])
    return ReplayReport(
        outcomes=outcomes,
        errors=errors,
        wall_time_s=wall,
        concurrency=concurrency,
        resubmissions=sum(resubmissions),
        report=report(),
    )


def replay_workload(
    service: QueryService,
    queries,
    *,
    dims: list[str] | None = None,
    concurrency: int = 8,
    deadline: float | None = None,
    retry_sleep_s: float = 0.001,
) -> ReplayReport:
    """Replay ``queries`` through a running service at a given concurrency.

    Each client thread owns one session and submits its share of the
    queries (round-robin by index), retrying on
    :class:`AdmissionRejected` -- the cooperative reaction to
    backpressure a well-behaved SkyServer client exhibits.  Failures
    (e.g. deadline misses) are collected, not raised.  The sessions are
    closed once the service's report is taken, so the report still sums
    every submission and repeated replays leave the session table as
    they found it.
    """
    sessions = []

    @contextlib.contextmanager
    def connect(worker_idx: int):
        session = service.open_session(name=f"replay-client-{worker_idx}")
        sessions.append(session)
        yield lambda polyhedron, tag: service.submit(
            polyhedron, session=session, deadline=deadline, tag=tag
        ).result

    try:
        return drive_replay(
            queries,
            dims=dims,
            concurrency=concurrency,
            retry_sleep_s=retry_sleep_s,
            connect=connect,
            report=service.report,
        )
    finally:
        for session in sessions:
            service.sessions.close(session.session_id)


def run_serial(
    planner: QueryEngine, queries, dims: list[str] | None = None
) -> list[dict]:
    """Execute the same queries one by one, bypassing the service.

    The ground truth for concurrent-correctness checks: the service at
    any concurrency must return row-for-row identical results.
    """
    return [
        planner.execute(_as_polyhedron(q, dims)).rows for q in queries
    ]


def rows_equal(a: dict, b: dict) -> bool:
    """Whether two result-row dicts hold the same rows (order-insensitive).

    Both executors return exact answers but in access-path-dependent
    order, so rows are aligned on ``_row_id`` before comparing every
    column exactly.
    """
    if set(a) != set(b):
        return False
    ids_a, ids_b = a["_row_id"], b["_row_id"]
    if len(ids_a) != len(ids_b):
        return False
    order_a, order_b = np.argsort(ids_a, kind="stable"), np.argsort(ids_b, kind="stable")
    if not np.array_equal(ids_a[order_a], ids_b[order_b]):
        return False
    return all(
        np.array_equal(a[name][order_a], b[name][order_b]) for name in a
    )
