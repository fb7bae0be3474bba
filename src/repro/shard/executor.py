"""The thread transport: every shard in this process, one thread pool.

:class:`ScatterGatherExecutor` is the sharded counterpart of a single
:class:`~repro.core.planner.QueryPlanner`.  Routing, the gather, the
write router and every counter belong to the one coordinator
(:class:`~repro.shard.coordinator.ShardCoordinator`); this transport
only says where a shard runs.  Each shard's member group runs
:func:`~repro.shard.coordinator.run_member_group` on a shared thread
pool against the shard's own planner (selectivity probe, access-path
choice, fault fallback), a cancelled member trips a per-shard event its
page and node loops poll, and the write RPCs are direct calls into each
shard's database.  Passing ``transport="process"`` (with ``specs=``)
returns the process transport instead,
:class:`~repro.net.pool.ShardWorkerPool`: the same
:class:`~repro.core.planner.QueryEngine` with one worker process per
shard.

On top of the coordinator this transport adds the frontier-merged,
exact k-NN across shard borders (:func:`~repro.shard.knn.scatter_gather_knn`)
and :meth:`ScatterGatherExecutor.gather` of rows by global id.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.core.planner import QueryPlanner
from repro.db.stats import IOStats
from repro.ingest.manager import DEFAULT_MERGE_THRESHOLD
from repro.shard.coordinator import ShardCoordinator, cancellable, run_member_group
from repro.shard.knn import ShardedKnnResult, scatter_gather_knn
from repro.shard.partitioner import ShardSet

__all__ = ["ScatterGatherExecutor"]


class ScatterGatherExecutor(ShardCoordinator):
    """Parallel per-shard planners behind one query engine.

    Parameters
    ----------
    shard_set:
        The partitioned table (see :class:`~repro.shard.KdPartitioner`).
    workers:
        Thread-pool size (default: one thread per shard, capped at 16).
    crossover / sample_pages / seed:
        Planner knobs, as in :class:`~repro.core.planner.QueryPlanner`.
        ``sample_pages`` is the *whole-table* probe budget: each shard's
        planner probes ``sample_pages / num_shards`` pages (at least
        one), so the aggregate sampling rate -- and plan-time I/O --
        matches the unsharded planner instead of multiplying by the
        shard count.  Each planner is seeded with ``seed + shard_id`` so
        probe jitter stays deterministic but uncorrelated across shards.
    use_tight_boxes:
        Router pruning family (see :class:`~repro.shard.ShardRouter`).
    """

    transport = "thread"

    def __new__(
        cls,
        shard_set: ShardSet | None = None,
        *,
        specs=None,
        transport: str = "thread",
        workers: int | None = None,
        crossover: float = 0.25,
        sample_pages: int = 8,
        seed: int = 0,
        use_tight_boxes: bool = True,
        engine: str = "auto",
        **process_opts,
    ):
        # transport="process" swaps the thread pool for one worker
        # process per shard (repro.net); the returned pool is the same
        # QueryEngine, so callers are transport-agnostic.
        if transport == "process":
            if specs is None:
                raise ValueError(
                    "transport='process' needs picklable shard specs; build "
                    "them with KdPartitioner.plan() and pass specs=..."
                )
            from repro.net.pool import ShardWorkerPool

            return ShardWorkerPool(
                specs,
                crossover=crossover,
                sample_pages=sample_pages,
                seed=seed,
                use_tight_boxes=use_tight_boxes,
                engine=engine,
                **process_opts,
            )
        if transport != "thread":
            raise ValueError(f"unknown transport {transport!r}")
        return super().__new__(cls)

    def __init__(
        self,
        shard_set: ShardSet | None = None,
        *,
        specs=None,
        transport: str = "thread",
        workers: int | None = None,
        crossover: float = 0.25,
        sample_pages: int = 8,
        seed: int = 0,
        use_tight_boxes: bool = True,
        engine: str = "auto",
        **process_opts,
    ):
        if shard_set is None:
            raise ValueError("thread transport needs a built ShardSet")
        if process_opts:
            unknown = ", ".join(sorted(process_opts))
            raise TypeError(f"unexpected arguments for thread transport: {unknown}")
        template = shard_set[0].table
        super().__init__(
            shard_set,
            use_tight_boxes,
            {name: template.dtype_of(name) for name in template.column_names},
            counters=("knn_queries",),
        )
        # Adopt writes that reached the shards before this executor did.
        for shard in shard_set:
            sid = shard.shard_id
            self._epochs[sid], self._fractions[sid] = shard.write_state()
            snapshot = shard.table.delta_snapshot()
            if snapshot is not None:
                self.router.note_delta(sid, snapshot.bounding_box(tuple(self.dims)))
        shard_probe = max(1, sample_pages // shard_set.num_shards)
        self.planners = {
            shard.shard_id: QueryPlanner(
                shard.index,
                crossover=crossover,
                sample_pages=shard_probe,
                seed=seed + shard.shard_id,
                engine=engine,
            )
            for shard in shard_set
        }
        if workers is None:
            workers = min(max(shard_set.num_shards, 1), 16)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"shard-{shard_set.name}"
        )
        self._shard_busy = {shard.shard_id: 0.0 for shard in shard_set}
        self._shard_requests = {shard.shard_id: 0 for shard in shard_set}

    def close(self) -> None:
        """Shut the shard pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    # -- transport ----------------------------------------------------------

    def _send_group(self, shard_id: int, group: list, out) -> dict:
        events = {m: threading.Event() for m, *_ in group}
        members = [
            (polyhedron, cancellable(events[m], check), memberships)
            for m, polyhedron, check, memberships in group
        ]
        self._pool.submit(
            self._run_group, shard_id, [m for m, *_ in group], members, out
        )
        return events

    def _cancel(self, shard_id: int, events: dict, member: int) -> None:
        events[member].set()

    def _run_group(self, shard_id: int, ids: list[int], members: list, out) -> None:
        started = time.perf_counter()
        trailer: object = {}
        try:
            trailer = run_member_group(
                self.shard_set[shard_id].table,
                self.planners[shard_id],
                members,
                lambda i, outcome: out.put((shard_id, ids[i], outcome)),
            )
        except BaseException as exc:
            # Hand the gather whatever killed the group, then re-raise.
            trailer = exc
            raise
        finally:
            self._note_shard_time(shard_id, time.perf_counter() - started)
            out.put((shard_id, None, trailer))

    def _insert_rpc(self, shard_id: int, rows: dict) -> tuple:
        shard = self.shard_set[shard_id]
        return (shard.table.insert_rows(rows), *shard.write_state())

    def _delete_rpc(self, shard_id: int, local_ids: np.ndarray) -> tuple:
        shard = self.shard_set[shard_id]
        return (shard.table.delete_rows(local_ids), *shard.write_state())

    def _merge_rpc(self, shard_id: int) -> tuple:
        shard = self.shard_set[shard_id]
        report = shard.merge()
        return (report, shard.num_rows, shard.tight_box, *shard.write_state())

    def maybe_repartition(
        self, threshold: float = DEFAULT_MERGE_THRESHOLD
    ) -> list:
        """Online repartitioning: re-cut shards whose churn crossed
        ``threshold`` (see :meth:`merge`); returns the merge reports."""
        return self.merge(threshold=threshold)

    # -- k-NN and point lookups ---------------------------------------------

    def knn(
        self,
        point: np.ndarray,
        k: int,
        cancel_check: Callable[[], None] | None = None,
    ) -> ShardedKnnResult:
        """Globally exact top-k via the frontier-merging shard search."""
        result = scatter_gather_knn(
            self.router, self._pool, point, k, cancel_check=cancel_check
        )
        self._note(
            knn_queries=1,
            shards_dispatched=result.shards_dispatched,
            shards_pruned=result.shards_pruned,
            shard_faults=result.shard_faults,
            partial_results=1 if result.partial else 0,
        )
        return result

    def gather(self, global_row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Fetch rows by global id across shards (see :meth:`ShardSet.gather`)."""
        return self.shard_set.gather(global_row_ids)

    # -- observability ------------------------------------------------------

    def _note_shard_time(self, shard_id: int, elapsed: float) -> None:
        with self._lock:
            self._shard_busy[shard_id] += elapsed
            self._shard_requests[shard_id] += 1

    def worker_stats(self) -> list[dict]:
        """Per-shard utilization snapshots, shaped like the process pool's."""
        with self._lock:
            return [
                {
                    "shard_id": shard.shard_id,
                    "pid": None,
                    "alive": True,
                    "requests": self._shard_requests[shard.shard_id],
                    "busy_s": self._shard_busy[shard.shard_id],
                    "respawns": 0,
                }
                for shard in self.shard_set
            ]

    def io_stats(self) -> IOStats:
        """Aggregate I/O counters across every shard's storage backend."""
        total = IOStats()
        for shard in self.shard_set:
            total.add(**shard.database.io_stats.snapshot().as_dict())
        return total
