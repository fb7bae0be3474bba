"""The query service: worker pool, deadlines, and the serving loop.

This is the reproduction's SkyServer front end, in-process: clients open
sessions, submit polyhedron queries, and get tickets; a pool of worker
threads pulls admitted queries, routes each through the *engine* -- a
:class:`~repro.core.planner.QueryEngine`: a single-table
:class:`~repro.core.planner.QueryPlanner`, a
:class:`~repro.shard.ScatterGatherExecutor` over a partitioned table on
either transport -- consults the result cache, and enforces per-query deadlines with
cooperative cancellation checks inside the scan/kd-tree iteration loops
(for a sharded engine the check propagates into every in-flight shard
worker).  A finished query's outcome is the engine's
:class:`~repro.core.planner.PlannedQuery` with the service fields filled
in (cache hit, queue wait, execution time, query id, session and tag),
and it leaves one :class:`~repro.service.metrics.QueryMetrics` record
behind.  Queries submitted without a session share one service-owned
session, so the session table grows with clients, not with queries.

Sharded engines may degrade instead of failing: a query whose engine
lost some shards to storage faults completes with ``partial=True`` and
the dead shard ids in ``failed_shards``.  Partial results are never
cached -- the next attempt recomputes against whatever shards are
healthy then.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.planner import PlannedQuery, QueryEngine
from repro.db.catalog import Database
from repro.db.errors import StorageFault
from repro.db.stats import QueryStats
from repro.geometry.halfspace import Polyhedron
from repro.service.admission import AdmissionQueue
from repro.service.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    QueryFault,
    ServiceClosed,
)
from repro.service.metrics import MetricsRegistry, QueryMetrics
from repro.service.result_cache import ResultCache, query_fingerprint
from repro.service.session import Session, SessionManager

__all__ = ["Deadline", "QueryTicket", "QueryService"]

#: What a failed query's outcome starts from: no rows, no plan.
_NO_ANSWER = PlannedQuery(
    rows={},
    stats=QueryStats(),
    chosen_path="",
    estimated_selectivity=float("nan"),
    sampled_pages=0,
)


class Deadline:
    """A wall-clock budget with a cooperative :meth:`check` hook.

    ``check`` is cheap enough to call once per page or tree node; it
    raises :class:`DeadlineExceeded` once the budget is spent, which the
    executors let propagate to abandon the query mid-iteration.
    """

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ValueError("deadline seconds must be >= 0")
        self.seconds = seconds
        self.expires_at = time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"query exceeded its {self.seconds * 1e3:.1f} ms deadline"
            )


class QueryTicket:
    """A future-like handle for one submitted query."""

    def __init__(self, query_id: int, session: Session):
        self.query_id = query_id
        self.session = session
        self._event = threading.Event()
        self._outcome: PlannedQuery | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Whether the query has finished (successfully or not)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> PlannedQuery:
        """Block for the outcome; re-raises the query's error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"query {self.query_id} still pending")
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    # -- completion (service side) -----------------------------------------

    def _complete(self, outcome: PlannedQuery) -> None:
        self._outcome = outcome
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


@dataclass
class _WorkItem:
    ticket: QueryTicket
    polyhedron: Polyhedron
    deadline: Deadline | None
    tag: str
    #: Optional IN-list predicates (column -> accepted values), applied
    #: conjunctively with the polyhedron by every engine.
    memberships: dict | None = None
    enqueued_at: float = field(default_factory=time.monotonic)


class QueryService:
    """An in-process, multi-client query server over one planner.

    Parameters
    ----------
    database:
        The catalog whose mutations invalidate the result cache.  May be
        ``None`` for engines that own their storage privately (a sharded
        engine runs one database per shard); cache invalidation then
        rides solely on the engine's ``layout_version``.
    planner:
        The :class:`~repro.core.planner.QueryEngine` every admitted query
        runs through (a planner or a sharded executor on either
        transport).
    workers:
        Worker thread count (the paper's server ran fully parallel I/O).
    queue_depth:
        Admission bound; a full queue rejects with backpressure.
    cache_entries:
        Result-cache capacity in entries (``0`` disables caching).
    cache_bytes:
        Approximate byte budget of the result cache (``None`` disables
        the byte bound; entry count still applies).
    default_deadline:
        Seconds applied to queries submitted without an explicit one
        (``None`` = no deadline).
    batch_size:
        Maximum micro-batch occupancy.  Every pull runs through the
        engine's ``execute_batch``; ``1`` (the default) serves each query
        alone, as a batch of one, and larger values let a worker pull
        several admitted queries at once, decoding shared pages once for
        the whole batch.  Result-cache hits are peeled off before
        batch formation, and each member keeps its own deadline,
        cancellation, and failure handling.
    batch_delay_s:
        Bounded formation delay: how long a worker holding a short batch
        waits for more arrivals before running it.  ``0`` (the default)
        batches only the backlog that is already queued.
    """

    def __init__(
        self,
        database: Database | None,
        planner: QueryEngine,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        cache_entries: int = 256,
        cache_bytes: int | None = 64 << 20,
        default_deadline: float | None = None,
        batch_size: int = 1,
        batch_delay_s: float = 0.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_delay_s < 0:
            raise ValueError("batch_delay_s must be >= 0")
        self.database = database
        self.planner = planner
        self.sessions = SessionManager()
        #: Where every session-less submit is accounted.
        self._anonymous = self.sessions.open("anonymous")
        self.admission = AdmissionQueue(queue_depth)
        self.cache = (
            ResultCache(cache_entries, max_bytes=cache_bytes)
            if cache_entries > 0
            else None
        )
        self.metrics = MetricsRegistry()
        self.default_deadline = default_deadline
        self.batch_size = batch_size
        self.batch_delay_s = batch_delay_s
        self._num_workers = workers
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._running = False
        self._query_ids = itertools.count(1)
        if self.cache is not None and self.database is not None:
            self._listener = lambda table: self.cache.invalidate_table(table)
            self.database.add_mutation_listener(self._listener)
        else:
            self._listener = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Spin up the worker pool; idempotent."""
        if self._running:
            return self
        self._stop.clear()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"query-worker-{i}", daemon=True
            )
            for i in range(self._num_workers)
        ]
        for thread in self._threads:
            thread.start()
        self._running = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; ``drain`` finishes queued work first."""
        if not self._running:
            return
        self._running = False  # refuse new submissions immediately
        if drain:
            while len(self.admission):
                time.sleep(0.001)
        else:
            for item in self.admission.drain():
                item.ticket._fail(ServiceClosed("service stopped before execution"))
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []
        if self._listener is not None:
            self.database.remove_mutation_listener(self._listener)
            self._listener = None

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """Whether the worker pool is accepting queries."""
        return self._running

    @property
    def alive_workers(self) -> int:
        """Worker threads currently alive (health check)."""
        return sum(1 for t in self._threads if t.is_alive())

    # -- client API -----------------------------------------------------------

    def open_session(self, name: str = "") -> Session:
        """Open a client session."""
        return self.sessions.open(name)

    def submit(
        self,
        polyhedron: Polyhedron,
        *,
        session: Session | None = None,
        deadline: float | Deadline | None = None,
        tag: str = "",
        memberships: dict | None = None,
    ) -> QueryTicket:
        """Admit one query; raises :class:`AdmissionRejected` when full.

        The deadline clock starts at submission, so time spent queued
        counts against the budget exactly as a web client's timeout
        would.
        """
        if not self._running:
            raise ServiceClosed("service is not running; call start()")
        if session is None:
            session = self._anonymous
        if deadline is None and self.default_deadline is not None:
            deadline = self.default_deadline
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(float(deadline))
        ticket = QueryTicket(next(self._query_ids), session)
        item = _WorkItem(
            ticket=ticket,
            polyhedron=polyhedron,
            deadline=deadline,
            tag=tag,
            memberships=memberships,
        )
        if not self.admission.offer(item):
            session.note_rejected()
            self.metrics.note_rejected()
            raise AdmissionRejected(self.admission.depth)
        session.note_submitted()
        self.metrics.note_submitted()
        return ticket

    def execute(
        self,
        polyhedron: Polyhedron,
        *,
        session: Session | None = None,
        deadline: float | Deadline | None = None,
        tag: str = "",
        timeout: float | None = None,
        memberships: dict | None = None,
    ) -> PlannedQuery:
        """Submit and wait: the blocking convenience wrapper."""
        return self.submit(
            polyhedron,
            session=session,
            deadline=deadline,
            tag=tag,
            memberships=memberships,
        ).result(timeout)

    def report(self) -> dict:
        """Everything the service knows about its own behavior.

        The ``io`` section is the engine's (aggregated across shards),
        and the ``engine`` section carries its counters (the
        scatter-gather and routing counts; empty for a planner).
        """
        return {
            "service": self.metrics.summary(),
            "admission": self.admission.counters(),
            "cache": self.cache.counters() if self.cache is not None else {},
            # The engine layout the cache is currently fingerprinting
            # against; moves on every ingest write, merge, and re-cut.
            "layout_version": self.planner.layout_version,
            "transport": self.planner.transport,
            "io": self.planner.io_stats().as_dict(),
            "engine": self.planner.counters(),
            "procedures": (
                self.database.procedures.timings() if self.database is not None else {}
            ),
            "sessions": {
                s.session_id: s.snapshot().as_dict() for s in self.sessions.all()
            },
        }

    # -- worker side ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            items = self.admission.pop_batch(
                self.batch_size, delay_s=self.batch_delay_s, timeout=0.05
            )
            if not items:
                continue
            try:
                self._run_batch(items)
            except BaseException as exc:  # last-ditch: never kill a worker
                for item in items:
                    if not item.ticket.done():
                        item.ticket._fail(exc)

    def _run_batch(self, items: list[_WorkItem]) -> None:
        """Serve one micro-batch through the engine's shared executor.

        A solo query is a batch of one.  Cache hits and already-expired
        deadlines are peeled off first; the rest run as one
        ``execute_batch`` call whose per-member outcomes feed the same
        completion and failure paths -- one member's deadline or fault
        never disturbs its siblings.  Batches are counted in the metrics
        only when ``batch_size`` allows more than one member.
        """
        started = time.monotonic()
        pending: list[_WorkItem] = []
        for item in items:
            try:
                if item.deadline is not None:
                    item.deadline.check()
                cached = self._cache_get(item)
            except Exception as exc:
                self._fail_item(item, exc, started)
                continue
            if cached is not None:
                self._complete_item(item, cached, True, started)
                continue
            pending.append(item)
        if not pending:
            return
        checks = [
            item.deadline.check if item.deadline is not None else None
            for item in pending
        ]
        try:
            batch = self.planner.execute_batch(
                [item.polyhedron for item in pending],
                checks,
                memberships_list=[item.memberships for item in pending],
            )
        except Exception as exc:
            # The engine refused the whole batch; fail every member with
            # the same structured handling a solo run would get.
            for item in pending:
                self._fail_item(item, exc, started)
            return
        if self.batch_size > 1:
            self.metrics.note_batch(
                len(pending), batch.pages_decoded, batch.shared_decode_hits
            )
        for item, member in zip(pending, batch.members):
            if member.error is not None:
                if isinstance(member.error, Exception):
                    self._fail_item(item, member.error, started)
                else:
                    item.ticket._fail(member.error)
                continue
            self._cache_put(item, member.planned)
            self._complete_item(item, member.planned, False, started)

    def _complete_item(
        self,
        item: _WorkItem,
        planned: PlannedQuery,
        cache_hit: bool,
        started: float,
    ) -> None:
        outcome = self._outcome(item, planned, started, cache_hit)
        self.metrics.record(QueryMetrics.of(outcome))
        item.ticket.session.note_completed(
            rows_returned=outcome.stats.rows_returned,
            queue_wait_s=outcome.queue_wait_s,
            exec_time_s=outcome.exec_time_s,
            cache_hit=cache_hit,
        )
        item.ticket._complete(outcome)

    def _fail_item(
        self, item: _WorkItem, exc: BaseException, started: float
    ) -> None:
        outcome = self._outcome(item, _NO_ANSWER, started)
        self.metrics.record(QueryMetrics.of(outcome, exc))
        item.ticket.session.note_failed(
            deadline_missed=isinstance(exc, DeadlineExceeded)
        )
        if isinstance(exc, StorageFault):
            # Every retry and fallback below us is exhausted: hand the
            # client a structured error, keep the worker alive.
            wrapped = QueryFault(item.ticket.query_id, item.tag, exc)
            wrapped.__cause__ = exc
            exc = wrapped
        item.ticket._fail(exc)

    def _outcome(
        self,
        item: _WorkItem,
        planned: PlannedQuery,
        started: float,
        cache_hit: bool = False,
    ) -> PlannedQuery:
        """A new record of ``planned`` as this service answered ``item``.

        ``planned`` itself is never changed: it may be the cache's entry,
        shared by every hit.  A hit ran no plan here, so it reports no
        fallback.
        """
        fallback = planned.fallback and not cache_hit
        return replace(
            planned,
            fallback=fallback,
            fallback_reason=planned.fallback_reason if fallback else "",
            cache_hit=cache_hit,
            queue_wait_s=started - item.enqueued_at,
            exec_time_s=time.monotonic() - started,
            query_id=item.ticket.query_id,
            session_id=item.ticket.session.session_id,
            tag=item.tag,
        )

    def _fingerprint(self, item: _WorkItem) -> str:
        return query_fingerprint(
            self.planner.table_name,
            self.planner.dims,
            item.polyhedron,
            layout_version=self.planner.layout_version,
            memberships=item.memberships,
        )

    def _cache_get(self, item: _WorkItem) -> PlannedQuery | None:
        if self.cache is None:
            return None
        return self.cache.get(self._fingerprint(item))

    def _cache_put(self, item: _WorkItem, planned: PlannedQuery) -> None:
        # A partial answer only reflects which shards happened to be
        # healthy at that instant -- never let it outlive the fault.
        if self.cache is not None and not planned.partial:
            self.cache.put(
                self._fingerprint(item), self.planner.table_name, planned
            )
