"""Per-query and service-level metrics.

Every number the benchmarks already trust -- pages touched, rows
examined/returned, cache hits -- flows from :class:`repro.db.stats`
counters; this module adds the serving dimension on top: queue wait,
execution time, planner choice, deadline misses, per-procedure wall
time.  One :class:`QueryMetrics` record is made per finished query
(completed, failed, or deadline-missed), by :meth:`QueryMetrics.of` from
the query's outcome, the service's
:class:`~repro.core.planner.PlannedQuery`, without its rows.  The
registry folds it into running counts, sums and maxima as it arrives, so
:meth:`MetricsRegistry.summary` (the service-level view a replay prints)
costs the same after a million queries as after one; only the
:data:`RECENT_RECORDS` most recent records are kept whole.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from repro.core.engines import ENGINES
from repro.core.planner import PlannedQuery
from repro.db.errors import StorageFault
from repro.db.procedures import ProcedureRegistry
from repro.db.stats import QueryStats
from repro.service.errors import DeadlineExceeded

__all__ = ["RECENT_RECORDS", "QueryMetrics", "MetricsRegistry"]

#: Records :meth:`MetricsRegistry.per_query` keeps, most recent last.
RECENT_RECORDS = 10_000

_SHARD_PATH = "shard_path_"


def _shard_paths(stats: QueryStats) -> dict[str, int]:
    """A sharded answer's shard count per access path (from its extras)."""
    return {
        key[len(_SHARD_PATH):]: int(count)
        for key, count in stats.extra.items()
        if key.startswith(_SHARD_PATH)
    }


@dataclass(frozen=True)
class QueryMetrics:
    """The full story of one query through the service."""

    query_id: int
    session_id: str
    tag: str = ""
    queue_wait_s: float = 0.0
    exec_time_s: float = 0.0
    pages_read: int = 0
    #: Pages proven irrelevant by zone maps and never read or decoded.
    pages_skipped: int = 0
    #: Pages pulled in via coalesced read-ahead instead of point reads.
    pages_prefetched: int = 0
    rows_examined: int = 0
    rows_returned: int = 0
    cache_hit: bool = False
    chosen_path: str = ""
    estimated_selectivity: float = float("nan")
    #: Returned rows / live rows, filled in after execution; NaN on
    #: cache hits and failures.  ``selectivity_error`` compares it to
    #: the estimate the planner chose its engine with.
    actual_selectivity: float = float("nan")
    deadline_missed: bool = False
    error: str = ""
    #: The planner degraded to another access path on a storage fault
    #: (the query still completed, correctly).
    fallback: bool = False
    fallback_reason: str = ""
    #: The query failed on an unrecoverable storage fault.
    storage_fault: bool = False
    #: Sharded engines only: shards the query actually ran on.
    shards_dispatched: int = 0
    #: Sharded engines only: shards pruned by box classification (zero I/O).
    shards_pruned: int = 0
    #: Sharded engines only: shards that died mid-query on a storage fault.
    shard_faults: int = 0
    #: The result covers only the surviving shards (degraded, not failed).
    partial: bool = False
    #: Sharded engines only: shard answers per access path.
    shard_paths: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(
        cls, outcome: PlannedQuery, error: BaseException | None = None
    ) -> "QueryMetrics":
        """The record of one finished query: ``outcome``'s counts, or the
        ``error`` that ended it (``outcome`` then carries only the
        service fields).  A cache hit read no pages and ran no plan here,
        so its page, shard and selectivity counts stay at zero / NaN."""
        if outcome.cache_hit:
            outcome = replace(
                outcome,
                stats=QueryStats(rows_returned=outcome.stats.rows_returned),
                chosen_path="cache",
                actual_selectivity=float("nan"),
                shards_dispatched=0,
                shards_pruned=0,
                shard_faults=0,
            )
        stats = outcome.stats
        return cls(
            query_id=outcome.query_id,
            session_id=outcome.session_id,
            tag=outcome.tag,
            queue_wait_s=outcome.queue_wait_s,
            exec_time_s=outcome.exec_time_s,
            pages_read=stats.pages_touched,
            pages_skipped=stats.pages_skipped,
            pages_prefetched=stats.pages_prefetched,
            rows_examined=stats.rows_examined,
            rows_returned=stats.rows_returned,
            cache_hit=outcome.cache_hit,
            chosen_path=outcome.chosen_path,
            estimated_selectivity=outcome.estimated_selectivity,
            actual_selectivity=outcome.actual_selectivity,
            deadline_missed=isinstance(error, DeadlineExceeded),
            error=type(error).__name__ if error is not None else "",
            fallback=outcome.fallback,
            fallback_reason=outcome.fallback_reason,
            storage_fault=isinstance(error, StorageFault),
            shards_dispatched=outcome.shards_dispatched,
            shards_pruned=outcome.shards_pruned,
            shard_faults=outcome.shard_faults,
            partial=outcome.partial,
            shard_paths=_shard_paths(stats),
        )

    @property
    def ok(self) -> bool:
        """Whether the query completed with a result."""
        return not self.error and not self.deadline_missed

    @property
    def selectivity_error(self) -> float:
        """``|estimated - actual|`` selectivity, NaN when either is unknown."""
        return abs(self.estimated_selectivity - self.actual_selectivity)


#: ``summary()`` fields read straight from the running totals.
_REPORTED = (
    "submitted", "rejected", "finished", "completed", "failed", "deadline_misses",
    "cache_hits", "pages_read", "pages_skipped", "pages_prefetched", "rows_returned",
    "max_queue_wait_s", "max_exec_time_s", "max_selectivity_error",
    *(f"{engine.name}_queries" for engine in ENGINES),
    "planner_fallbacks", "storage_faults", "shards_dispatched", "shards_pruned",
    "shard_faults", "partial_results", "batches", "batch_members",
    "batch_pages_decoded", "shared_decode_hits",
)


class MetricsRegistry:
    """Thread-safe running service totals plus the most recent records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recent: deque[QueryMetrics] = deque(maxlen=RECENT_RECORDS)
        self._totals: Counter = Counter()

    # -- recording (called by the service) ---------------------------------

    def note_submitted(self) -> None:
        with self._lock:
            self._totals["submitted"] += 1

    def note_rejected(self) -> None:
        with self._lock:
            self._totals["rejected"] += 1

    def note_batch(
        self, occupancy: int, pages_decoded: int, shared_decode_hits: int
    ) -> None:
        """Record one formed micro-batch and its shared-work counters.

        ``occupancy`` is the number of member queries co-executed (cache
        hits peeled off before formation do not count);
        ``shared_decode_hits`` counts page decodes that served an extra
        member beyond the first -- work a solo run would have repeated.
        """
        with self._lock:
            self._totals.update(
                batches=1,
                batch_members=occupancy,
                batch_pages_decoded=pages_decoded,
                shared_decode_hits=shared_decode_hits,
            )

    def record(self, r: QueryMetrics) -> None:
        """Fold one finished query's record into the totals and keep it."""
        with self._lock:
            self._recent.append(r)
            t = self._totals
            t["finished"] += 1
            t["failed"] += bool(r.error) and not r.deadline_missed
            t["deadline_misses"] += r.deadline_missed
            t["cache_hits"] += r.cache_hit
            t["queue_wait_s"] += r.queue_wait_s
            t["max_queue_wait_s"] = max(t["max_queue_wait_s"], r.queue_wait_s)
            t["storage_faults"] += r.storage_fault
            t["shards_dispatched"] += r.shards_dispatched
            t["shards_pruned"] += r.shards_pruned
            t["shard_faults"] += r.shard_faults
            t["partial_results"] += r.partial
            if not r.ok:
                return
            t["completed"] += 1
            t["completed_cache_hits"] += r.cache_hit
            t["pages_read"] += r.pages_read
            t["pages_skipped"] += r.pages_skipped
            t["pages_prefetched"] += r.pages_prefetched
            t["rows_returned"] += r.rows_returned
            t["exec_time_s"] += r.exec_time_s
            t["max_exec_time_s"] = max(t["max_exec_time_s"], r.exec_time_s)
            for path, count in (r.shard_paths or {r.chosen_path: 1}).items():
                t[f"{path}_queries"] += count
            error = r.selectivity_error
            if error == error:  # drop NaN
                t["selectivity_errors"] += 1
                t["selectivity_error"] += error
                t["max_selectivity_error"] = max(t["max_selectivity_error"], error)
            t["planner_fallbacks"] += r.fallback

    # -- reading -------------------------------------------------------------

    def per_query(self) -> list[QueryMetrics]:
        """Copy of the :data:`RECENT_RECORDS` most recent records, oldest first."""
        with self._lock:
            return list(self._recent)

    def summary(self) -> dict[str, float]:
        """Service-level aggregates over all finished queries."""
        with self._lock:
            t = Counter(self._totals)

        def mean(total: str, count: str) -> float:
            return t[total] / t[count] if t[count] else 0.0

        return {
            **{name: float(t[name]) for name in _REPORTED},
            "cache_hit_rate": mean("completed_cache_hits", "completed"),
            "mean_queue_wait_s": mean("queue_wait_s", "finished"),
            "mean_exec_time_s": mean("exec_time_s", "completed"),
            "mean_selectivity_error": mean("selectivity_error", "selectivity_errors"),
            "mean_batch_occupancy": mean("batch_members", "batches"),
        }

    def procedure_report(self, procedures: ProcedureRegistry) -> dict[str, dict[str, float]]:
        """Per-procedure calls and cumulative wall time (from the registry)."""
        return procedures.timings()

    def format_report(
        self, procedures: ProcedureRegistry | None = None
    ) -> str:
        """Human-readable multi-line report (what the CLI prints)."""
        s = self.summary()
        lines = [
            "query service metrics",
            f"  submitted          {int(s['submitted']):>8}",
            f"  rejected (queue)   {int(s['rejected']):>8}",
            f"  completed          {int(s['completed']):>8}",
            f"  deadline misses    {int(s['deadline_misses']):>8}",
            f"  failed             {int(s['failed']):>8}",
            f"  cache hits         {int(s['cache_hits']):>8}"
            f"   (hit rate {s['cache_hit_rate']:.2%})",
            f"  pages read         {int(s['pages_read']):>8}",
            f"  pages skipped      {int(s['pages_skipped']):>8}"
            f"   prefetched {int(s['pages_prefetched'])}",
            f"  rows returned      {int(s['rows_returned']):>8}",
            "  planner            "
            + "   ".join(
                f"{engine.name} {int(s[f'{engine.name}_queries'])}" for engine in ENGINES
            ),
            f"  selectivity error  mean {s['mean_selectivity_error']:8.4f}"
            f"   max {s['max_selectivity_error']:.4f}",
            f"  planner fallbacks  {int(s['planner_fallbacks']):>8}",
            f"  storage faults     {int(s['storage_faults']):>8}",
        ]
        if s["batches"]:
            lines += [
                f"  batches formed     {int(s['batches']):>8}"
                f"   mean occupancy {s['mean_batch_occupancy']:.2f}",
                f"  shared decodes     {int(s['shared_decode_hits']):>8}"
                f"   batch pages decoded {int(s['batch_pages_decoded'])}",
            ]
        if s["shards_dispatched"] or s["shards_pruned"]:
            lines += [
                f"  shards dispatched  {int(s['shards_dispatched']):>8}"
                f"   pruned {int(s['shards_pruned'])}",
                f"  shard faults       {int(s['shard_faults']):>8}"
                f"   partial results {int(s['partial_results'])}",
            ]
        lines += [
            f"  queue wait         mean {s['mean_queue_wait_s'] * 1e3:8.2f} ms"
            f"   max {s['max_queue_wait_s'] * 1e3:.2f} ms",
            f"  exec time          mean {s['mean_exec_time_s'] * 1e3:8.2f} ms"
            f"   max {s['max_exec_time_s'] * 1e3:.2f} ms",
        ]
        if procedures is not None:
            timings = self.procedure_report(procedures)
            if timings:
                lines.append("  procedures:")
                for name, row in timings.items():
                    lines.append(
                        f"    {name:<28} {int(row['calls']):>6} calls"
                        f"  {row['total_time'] * 1e3:10.2f} ms"
                    )
        return "\n".join(lines)
