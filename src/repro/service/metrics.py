"""Per-query and service-level metrics.

Every number the benchmarks already trust -- pages touched, rows
examined/returned, cache hits -- flows from :class:`repro.db.stats`
counters; this module adds the serving dimension on top: queue wait,
execution time, planner choice, deadline misses, per-procedure wall
time.  One :class:`QueryMetrics` record is appended per finished query
(completed, failed, or deadline-missed); :meth:`MetricsRegistry.summary`
aggregates them into the service-level view a replay prints.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.engines import ENGINES
from repro.db.procedures import ProcedureRegistry
from repro.db.stats import QueryStats

__all__ = ["QueryMetrics", "MetricsRegistry", "shard_paths_of"]

_SHARD_PATH = "shard_path_"

def shard_paths_of(stats: QueryStats) -> dict[str, int]:
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

    @property
    def ok(self) -> bool:
        """Whether the query completed with a result."""
        return not self.error and not self.deadline_missed

    @property
    def selectivity_error(self) -> float:
        """``|estimated - actual|`` selectivity, NaN when either is unknown."""
        return abs(self.estimated_selectivity - self.actual_selectivity)


@dataclass
class _Totals:
    submitted: int = 0
    rejected: int = 0
    batches: int = 0
    batch_members: int = 0
    batch_pages_decoded: int = 0
    shared_decode_hits: int = 0


class MetricsRegistry:
    """Thread-safe registry of per-query records plus service counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[QueryMetrics] = []
        self._totals = _Totals()

    # -- recording (called by the service) ---------------------------------

    def note_submitted(self) -> None:
        with self._lock:
            self._totals.submitted += 1

    def note_rejected(self) -> None:
        with self._lock:
            self._totals.rejected += 1

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
            self._totals.batches += 1
            self._totals.batch_members += occupancy
            self._totals.batch_pages_decoded += pages_decoded
            self._totals.shared_decode_hits += shared_decode_hits

    def record(self, metrics: QueryMetrics) -> None:
        """Append one finished query's record."""
        with self._lock:
            self._records.append(metrics)

    # -- reading -------------------------------------------------------------

    def per_query(self) -> list[QueryMetrics]:
        """Copy of every record, in completion order."""
        with self._lock:
            return list(self._records)

    def summary(self) -> dict[str, float]:
        """Service-level aggregates over all finished queries."""
        with self._lock:
            records = list(self._records)
            submitted = self._totals.submitted
            rejected = self._totals.rejected
            batches = self._totals.batches
            batch_members = self._totals.batch_members
            batch_pages_decoded = self._totals.batch_pages_decoded
            shared_decode_hits = self._totals.shared_decode_hits
        done = [r for r in records if r.ok]
        waits = [r.queue_wait_s for r in records]
        execs = [r.exec_time_s for r in done]
        errors = [
            r.selectivity_error
            for r in done
            if r.selectivity_error == r.selectivity_error  # drop NaN
        ]
        return {
            "submitted": float(submitted),
            "rejected": float(rejected),
            "finished": float(len(records)),
            "completed": float(len(done)),
            "failed": float(sum(1 for r in records if r.error and not r.deadline_missed)),
            "deadline_misses": float(sum(1 for r in records if r.deadline_missed)),
            "cache_hits": float(sum(1 for r in records if r.cache_hit)),
            "cache_hit_rate": (
                sum(1 for r in done if r.cache_hit) / len(done) if done else 0.0
            ),
            "pages_read": float(sum(r.pages_read for r in done)),
            "pages_skipped": float(sum(r.pages_skipped for r in done)),
            "pages_prefetched": float(sum(r.pages_prefetched for r in done)),
            "rows_returned": float(sum(r.rows_returned for r in done)),
            "mean_queue_wait_s": sum(waits) / len(waits) if waits else 0.0,
            "max_queue_wait_s": max(waits) if waits else 0.0,
            "mean_exec_time_s": sum(execs) / len(execs) if execs else 0.0,
            "max_exec_time_s": max(execs) if execs else 0.0,
            **{
                f"{engine.name}_queries": float(
                    sum((r.shard_paths or {r.chosen_path: 1}).get(engine.name, 0) for r in done)
                )
                for engine in ENGINES
            },
            "mean_selectivity_error": (
                sum(errors) / len(errors) if errors else 0.0
            ),
            "max_selectivity_error": max(errors) if errors else 0.0,
            "planner_fallbacks": float(sum(1 for r in done if r.fallback)),
            "storage_faults": float(sum(1 for r in records if r.storage_fault)),
            "shards_dispatched": float(sum(r.shards_dispatched for r in records)),
            "shards_pruned": float(sum(r.shards_pruned for r in records)),
            "shard_faults": float(sum(r.shard_faults for r in records)),
            "partial_results": float(sum(1 for r in records if r.partial)),
            "batches": float(batches),
            "batch_members": float(batch_members),
            "mean_batch_occupancy": (
                batch_members / batches if batches else 0.0
            ),
            "batch_pages_decoded": float(batch_pages_decoded),
            "shared_decode_hits": float(shared_decode_hits),
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
