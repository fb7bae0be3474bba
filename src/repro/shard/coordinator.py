"""One scatter-gather coordinator for a kd-subtree-sharded table.

:class:`ShardCoordinator` is everything sharded execution does that does
not depend on *where* a shard runs.  It is a
:class:`~repro.core.planner.QueryEngine`, so the service and the TCP
server drive it exactly as they drive a single-table planner:

1. **route** -- the :class:`~repro.shard.router.ShardRouter` classifies
   every shard's box (stretched over pending delta inserts) against each
   member polyhedron; OUTSIDE shards are pruned with zero I/O;
2. **dispatch** -- each dispatched shard receives one *member group*: all
   the members of the call routed to it, each with its INSIDE/PARTIAL
   relation, cancel check and IN-list filters;
3. **gather** -- per-shard member outcomes stream back through one queue;
   each is rebased into the global row-id namespace and folded into its
   member, and every member is finalised once into a sharded
   :class:`~repro.core.planner.PlannedQuery`.

Solo :meth:`ShardCoordinator.execute` is a batch of one.  The per-member
rule: the first deadline or unexpected error a member hits on any shard
fails that member and cancels it on every other shard (a solo query
therefore aborts its siblings); a storage fault fails only that shard for
that member, which completes ``partial=True`` over the survivors and
raises only when every dispatched shard failed.  Once no member of the
call is still live, the gather returns without waiting for the shards'
trailers.

The write path lives here too: insert rows go to the shard whose
partition cell contains them, deletes to the shard owning the global id,
and merges re-cut shards whose delta fraction crossed a threshold; the
coordinator keeps each shard's write epoch (for ``layout_version``) and
delta fraction from the replies.

A *transport* is a subclass supplying only this: start and stop the
shards, ``_send_group`` (run one shard's member group), ``_cancel``
(cancel one member on one shard), and the write RPCs ``_insert_rpc`` /
``_delete_rpc`` / ``_merge_rpc``.  The thread transport is
:class:`~repro.shard.ScatterGatherExecutor`; the process transport is
:class:`~repro.net.pool.ShardWorkerPool`.  Both run a member group with
:func:`run_member_group`, the one shard-side executor.
"""

from __future__ import annotations

import math
import queue
import threading
from typing import Callable

import numpy as np

from repro.core.batch import BatchMemberResult, BatchResult
from repro.core.planner import PlannedQuery, QueryEngine
from repro.db.errors import StorageFault
from repro.db.fetch import FetchMember
from repro.db.scan import batch_full_scan
from repro.db.stats import QueryStats
from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import Polyhedron
from repro.shard.partitioner import ShardSet, to_global_ids, to_local_ids
from repro.shard.router import RoutingDecision, ShardRouter

__all__ = ["ShardAborted", "ShardCoordinator", "cancellable", "run_member_group"]


class ShardAborted(Exception):
    """The coordinator cancelled this member on this shard.

    A member's check raises it once another shard has already failed the
    member (a deadline or an unexpected error), so the shard stops
    scanning for an answer nobody will read.
    """


def cancellable(
    event: threading.Event, inner: Callable[[], None] | None
) -> Callable[[], None]:
    """A member's check on one shard: the coordinator's cancel first,
    then the caller's own check (typically a deadline)."""

    def check() -> None:
        if event.is_set():
            raise ShardAborted("cancelled by the coordinator")
        if inner is not None:
            inner()

    return check


def _inside(rows: dict, stats: QueryStats) -> PlannedQuery:
    return PlannedQuery(
        rows=rows,
        stats=stats,
        chosen_path="inside",
        estimated_selectivity=1.0,
        sampled_pages=0,
    )


def _inside_member(member: tuple) -> FetchMember:
    """A member whose shard lies INSIDE its polyhedron: IN-lists only."""
    _, check, memberships = member
    return FetchMember(memberships=memberships, cancel_check=check)


def _scan_alone(table, member: FetchMember) -> tuple:
    try:
        (outcome,), _ = batch_full_scan(table, [member])
    except Exception as exc:
        return None, None, exc
    return outcome


def run_member_group(
    table,
    planner,
    members: list[tuple[Polyhedron | None, Callable | None, dict | None]],
    emit: Callable[[int, object], None],
) -> dict:
    """Run one shard's member group; return its shared-decode counters.

    ``members[i]`` is ``(polyhedron, check, memberships)`` with
    ``polyhedron=None`` when the shard lies INSIDE it: Figure 4's
    fully-inside case at shard granularity needs no probe, tree or
    per-row test, so those members share one predicate-free scan pass,
    each keeping only its own IN-list filter.  A storage fault in that
    shared pass retries each member alone so the fault stays per-member.
    The other members go through the planner's
    :meth:`~repro.core.planner.QueryPlanner.execute_batch`, so a page hot
    across the group is decoded once.

    ``emit(i, outcome)`` receives member ``i``'s
    :class:`~repro.core.planner.PlannedQuery`, or the exception it hit,
    as soon as it is known; a failure of the group itself is emitted for
    every member not yet answered.
    """
    counters = {"pages_decoded": 0, "shared_decode_hits": 0}
    unanswered = set(range(len(members)))

    def answer(i: int, outcome) -> None:
        unanswered.discard(i)
        emit(i, outcome)

    try:
        inside = [i for i, member in enumerate(members) if member[0] is None]
        partial = [i for i, member in enumerate(members) if member[0] is not None]
        if inside:
            try:
                scanned, shared = batch_full_scan(
                    table, [_inside_member(members[i]) for i in inside]
                )
            except StorageFault:
                scanned = [
                    _scan_alone(table, _inside_member(members[i])) for i in inside
                ]
            else:
                for key in counters:
                    counters[key] += shared[key]
            for i, (rows, stats, error) in zip(inside, scanned):
                answer(i, error if error is not None else _inside(rows, stats))
        if partial:
            batch = planner.execute_batch(
                [members[i][0] for i in partial],
                [members[i][1] for i in partial],
                memberships_list=[members[i][2] for i in partial],
            )
            counters["pages_decoded"] += batch.pages_decoded
            counters["shared_decode_hits"] += batch.shared_decode_hits
            for i, result in zip(partial, batch.members):
                answer(i, result.error if result.error is not None else result.planned)
    except Exception as exc:
        for i in sorted(unanswered):
            emit(i, exc)
    return counters


class _Gathered:
    """One member's answer, folded together shard by shard."""

    def __init__(self, decision: RoutingDecision):
        self.decision = decision
        self.stats = QueryStats()
        self.pieces: list[dict[str, np.ndarray]] = []
        self.paths: dict[str, int] = {}
        self.failed: list[int] = []
        self.fault: BaseException | None = None
        self.fallback = False
        self.fallback_reason = ""
        self.weighted = 0.0
        self.estimated_rows = 0
        self.sampled_pages = 0
        #: Shards that were sent this member and have not answered yet.
        self.waiting: set[int] = set()

    def fail(self, shard_id: int, fault: BaseException) -> None:
        self.failed.append(shard_id)
        self.fault = fault

    def fold(self, shard, planned: PlannedQuery, rows: dict) -> None:
        self.stats.merge(planned.stats)
        self.pieces.append(rows)
        self.paths[planned.chosen_path] = self.paths.get(planned.chosen_path, 0) + 1
        if planned.fallback:
            self.fallback = True
            self.fallback_reason = self.fallback_reason or planned.fallback_reason
        if math.isfinite(planned.estimated_selectivity):
            self.weighted += planned.estimated_selectivity * shard.num_rows
            self.estimated_rows += shard.num_rows
        self.sampled_pages += planned.sampled_pages


class ShardCoordinator(QueryEngine):
    """Routing, scatter, gather and the write path over one transport.

    Subclasses are the transports (see the module docstring).  ``schema``
    is the result schema (column -> dtype) an empty answer is built from.
    """

    #: The transport's name (for reports and replays).
    transport = ""
    #: Seconds a waiting gather sleeps between polls of its members' checks.
    poll_s = 0.01
    _COUNTERS = (
        "queries",
        "shards_dispatched",
        "shards_pruned",
        "shard_faults",
        "partial_results",
        "cancels_sent",
        "rows_inserted",
        "rows_deleted",
        "merges",
    )

    def __init__(
        self,
        shard_set: ShardSet,
        use_tight_boxes: bool,
        schema: dict[str, np.dtype],
        counters: tuple[str, ...] = (),
    ):
        self.shard_set = shard_set
        self.router = ShardRouter(shard_set, use_tight_boxes=use_tight_boxes)
        self._schema = {**schema, "_row_id": np.dtype(np.int64)}
        self._epochs = ["g0.e0"] * shard_set.num_shards
        self._fractions = [0.0] * shard_set.num_shards
        self._closed = False
        self._lock = threading.Lock()
        # Serializes writes: each reply's epoch and fraction must land in
        # order, and a merge moves the offsets deletes are routed by.
        self._write_lock = threading.Lock()
        self._counters = dict.fromkeys(self._COUNTERS + counters, 0)

    # -- the QueryEngine contract -------------------------------------------

    @property
    def table_name(self) -> str:
        return self.shard_set.name

    @property
    def dims(self) -> list[str]:
        return list(self.shard_set.dims)

    @property
    def num_shards(self) -> int:
        """How many shards back this engine."""
        return self.shard_set.num_shards

    @property
    def layout_version(self) -> str:
        """Shard-layout digest plus per-shard write epochs.

        The digest moves when a merge or re-cut changes shard sizes; the
        epochs move on every acknowledged insert, delete and merge, so a
        result cache above can never serve rows from a superseded view.
        """
        return f"{self.shard_set.layout_version}|{','.join(self._epochs)}"

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    # -- queries ------------------------------------------------------------

    def _run_batch(self, polyhedra, checks, filters) -> BatchResult:
        """Route, scatter and gather a micro-batch in one fan-out.

        Each shard receives one member group covering every member routed
        to it, so a page hot across the batch is decoded once per shard.
        A member's deadline or error fails that member alone; a shard's
        storage fault degrades the members it served to flagged partials.
        IN-lists ride to every dispatched shard; routing stays
        polyhedron-only -- membership filters never widen the dispatched
        set, they only thin rows inside it.

        Deadlines are polled on a fixed rule: every live member's check
        runs once before dispatch, and once per gather step (each reply,
        trailer or ``poll_s`` timeout) until the gather ends.  So a
        member whose answers have all arrived can still miss its
        deadline before the gather returns.
        """
        self._check_open()
        n = len(polyhedra)
        result = BatchResult(members=[BatchMemberResult() for _ in range(n)], occupancy=n)
        gathered: dict[int, _Gathered] = {}
        groups: dict[int, list] = {}
        for m, check in enumerate(checks):
            if check is not None:
                try:
                    check()
                except Exception as exc:
                    result.members[m].error = exc
                    continue
            decision = self.router.route_polyhedron(polyhedra[m])
            gathered[m] = _Gathered(decision)
            for shard, relation in decision.dispatched:
                groups.setdefault(shard.shard_id, []).append(
                    (
                        m,
                        None if relation is BoxRelation.INSIDE else polyhedra[m],
                        check,
                        filters[m],
                    )
                )

        out: queue.Queue = queue.Queue()
        tickets: dict[int, object] = {}
        for shard_id, group in groups.items():
            try:
                tickets[shard_id] = self._send_group(shard_id, group, out)
            except StorageFault as exc:
                for m, *_ in group:
                    gathered[m].fail(shard_id, exc)
                continue
            for m, *_ in group:
                gathered[m].waiting.add(shard_id)

        live = set(gathered)
        pending = set(tickets)

        def fail_member(m: int, exc: BaseException) -> None:
            result.members[m].error = exc
            live.discard(m)
            for shard_id in gathered[m].waiting:
                self._cancel(shard_id, tickets[shard_id], m)
                self._note(cancels_sent=1)

        while pending and live:
            # A coordinator-side deadline cancels its member everywhere
            # without waiting for the next shard frame.
            for m in [m for m in live if checks[m]]:
                try:
                    checks[m]()
                except Exception as exc:
                    fail_member(m, exc)
            if not live:
                break
            try:
                shard_id, m, outcome = out.get(timeout=self.poll_s)
            except queue.Empty:
                continue
            if m is None:
                # The shard's trailer: its shared-decode counters, or the
                # reason it died owing answers.
                pending.discard(shard_id)
                if isinstance(outcome, BaseException):
                    for g in gathered.values():
                        if shard_id in g.waiting:
                            g.waiting.discard(shard_id)
                            g.fail(shard_id, outcome)
                else:
                    result.pages_decoded += outcome.get("pages_decoded", 0)
                    result.shared_decode_hits += outcome.get("shared_decode_hits", 0)
                continue
            g = gathered[m]
            g.waiting.discard(shard_id)
            if m not in live:
                continue
            if isinstance(outcome, PlannedQuery):
                shard = self.shard_set[shard_id]
                rows = dict(outcome.rows)
                rows["_row_id"] = to_global_ids(shard, rows["_row_id"])
                g.fold(shard, outcome, rows)
            elif isinstance(outcome, StorageFault):
                g.fail(shard_id, outcome)
            else:
                fail_member(m, outcome)

        note = dict.fromkeys(
            ("queries", "shards_dispatched", "shards_pruned", "shard_faults", "partial_results"),
            0,
        )
        for m, g in gathered.items():
            note["queries"] += 1
            note["shards_dispatched"] += g.decision.shards_dispatched
            note["shards_pruned"] += g.decision.shards_pruned
            note["shard_faults"] += len(g.failed)
            if result.members[m].error is not None:
                continue
            if g.failed and not g.pieces:
                result.members[m].error = g.fault
                continue
            note["partial_results"] += 1 if g.failed else 0
            result.members[m].planned = self._finalise(g)
        self._note(**note)
        return result

    def _finalise(self, g: _Gathered) -> PlannedQuery:
        decision = g.decision
        total_rows = self.shard_set.total_rows
        if g.estimated_rows:
            estimate = g.weighted / total_rows
        else:
            estimate = float("nan") if decision.dispatched else 0.0
        for path, count in g.paths.items():
            g.stats.extra[f"shard_path_{path}"] = count
        g.stats.extra["transport"] = self.transport
        return PlannedQuery(
            rows=self._merge_pieces(g.pieces),
            stats=g.stats,
            chosen_path="sharded",
            estimated_selectivity=estimate,
            sampled_pages=g.sampled_pages,
            fallback=g.fallback,
            fallback_reason=g.fallback_reason,
            shards_dispatched=decision.shards_dispatched,
            shards_pruned=decision.shards_pruned,
            shard_faults=len(g.failed),
            partial=bool(g.failed),
            failed_shards=tuple(sorted(g.failed)),
            actual_selectivity=g.stats.rows_returned / max(1, total_rows),
        )

    def _merge_pieces(self, pieces: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
        if not pieces:
            return {name: np.empty(0, dtype=dtype) for name, dtype in self._schema.items()}
        return {name: np.concatenate([p[name] for p in pieces]) for name in self._schema}

    # -- the write path -----------------------------------------------------

    def insert_rows(self, data: dict[str, np.ndarray]) -> np.ndarray:
        """Insert rows, routed to shards by partition-box containment.

        Each row lands in the owning shard's delta tier (WAL-first on
        that shard's database); a row outside every partition cell goes
        to the nearest shard.  Non-finite coordinates are rejected before
        any shard is written.  Returns global delta-band row ids in
        input order.
        """
        self._check_open()
        arrays = {c: np.asarray(arr) for c, arr in data.items()}
        points = np.column_stack(
            [np.asarray(arrays[d], dtype=np.float64) for d in self.dims]
        )
        if not np.isfinite(points).all():
            raise ValueError("inserted coordinates must be finite")
        shards = list(self.shard_set)
        owner = np.full(len(points), -1, dtype=np.int64)
        for shard in shards:
            undecided = np.flatnonzero(owner == -1)
            inside = shard.partition_box.contains_points(points[undecided])
            owner[undecided[inside]] = shard.shard_id
        for i in np.flatnonzero(owner == -1):
            distances = [s.partition_box.min_distance_to_point(points[i]) for s in shards]
            owner[i] = int(np.argmin(distances))
        out = np.empty(len(points), dtype=np.int64)
        with self._write_lock:
            for shard_id in np.unique(owner).tolist():
                where = np.flatnonzero(owner == shard_id)
                rows = {c: np.ascontiguousarray(arr[where]) for c, arr in arrays.items()}
                local, self._epochs[shard_id], self._fractions[shard_id] = (
                    self._insert_rpc(shard_id, rows)
                )
                out[where] = to_global_ids(self.shard_set[shard_id], local)
                mine = points[where]
                self.router.note_delta(shard_id, Box(mine.min(axis=0), mine.max(axis=0)))
        self._note(rows_inserted=len(points))
        return out

    def delete_rows(self, row_ids) -> int:
        """Tombstone rows by global id (main-band or delta-band)."""
        self._check_open()
        ids = np.atleast_1d(np.asarray(row_ids, dtype=np.int64))
        if len(ids) == 0:
            return 0
        deleted = 0
        with self._write_lock:
            owner = self.shard_set.owner_of_rows(ids)
            for shard_id in np.unique(owner).tolist():
                local = to_local_ids(self.shard_set[shard_id], ids[owner == shard_id])
                count, self._epochs[shard_id], self._fractions[shard_id] = (
                    self._delete_rpc(shard_id, local)
                )
                deleted += count
        self._note(rows_deleted=deleted)
        return deleted

    def delta_fraction(self) -> float:
        """The largest per-shard delta fraction (merge / re-cut trigger)."""
        return max(self._fractions)

    def merge(self, threshold: float = 0.0) -> list:
        """Merge every shard whose delta fraction crossed ``threshold``.

        Each qualifying shard drains its delta out-of-place into a new
        local generation (median-split kd rebuild over old + new points
        -- the re-cut of that subtree); the coordinator takes the shard's
        new row count and tight box from the reply and recomputes global
        offsets and the layout digest.  Queries keep flowing throughout:
        each shard swaps atomically under its own catalog lock.
        """
        reports = []
        with self._write_lock:
            for shard in self.shard_set:
                sid = shard.shard_id
                if self._fractions[sid] == 0 or self._fractions[sid] < threshold:
                    continue
                (
                    report,
                    shard.num_rows,
                    shard.tight_box,
                    self._epochs[sid],
                    self._fractions[sid],
                ) = self._merge_rpc(sid)
                self.router.note_delta(sid, None)
                reports.append(report)
            if reports:
                self.shard_set.refresh()
        self._note(merges=len(reports))
        return reports

    # -- observability ------------------------------------------------------

    def _note(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counters[key] += delta

    def counters(self) -> dict[str, int]:
        """Cumulative scatter-gather counters since construction."""
        with self._lock:
            return dict(self._counters)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.table_name!r}, "
            f"shards={self.num_shards}, transport={self.transport!r}, "
            f"layout={self.layout_version!r})"
        )
