"""Scatter-gather k-NN: frontier-merged top-k across shard borders.

§3.3's boundary-point argument, applied one level up: a shard can only
contribute a neighbor if its bounding box comes closer to the query
point than the current k-th distance ``m``.  The search therefore

1. orders shards by box lower bound (the home shard -- the one whose
   box contains the point -- has bound zero),
2. runs the nearest shard first to *seed* ``m`` with k local
   candidates (the per-shard search is the paper's exact boundary-point
   algorithm over that shard's own kd-tree),
3. dispatches every remaining shard whose bound beats ``m`` in
   parallel -- ``m`` only shrinks as candidates merge, so any shard
   pruned against the seeded ``m`` is pruned against the final one too,
4. k-way merges the per-shard candidate heaps
   (:func:`repro.core.knn.merge_knn_results`) into the globally correct
   top-k, with shard-local row ids remapped to the global namespace.

Per-shard storage faults degrade the answer instead of failing it: the
dead shard is recorded in ``failed_shards`` and the merge proceeds over
the survivors with ``partial=True``.  Only when *every* examined shard
dies does the fault propagate.
"""

from __future__ import annotations

from concurrent.futures import Executor, as_completed
from dataclasses import dataclass, field

import numpy as np

from repro.core.knn import KnnResult, knn_boundary_points, merge_knn_results
from repro.db.errors import StorageFault
from repro.db.stats import QueryStats
from repro.shard.partitioner import Shard, to_global_ids
from repro.shard.router import ShardRouter

__all__ = ["ShardedKnnResult", "scatter_gather_knn"]


@dataclass
class ShardedKnnResult:
    """A globally merged k-NN answer plus the scatter-gather accounting."""

    row_ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats = field(default_factory=QueryStats)
    shards_dispatched: int = 0
    shards_pruned: int = 0
    shard_faults: int = 0
    failed_shards: tuple = ()
    #: At least one shard died; the top-k covers only the survivors.
    partial: bool = False

    @property
    def k(self) -> int:
        """Number of neighbors actually found."""
        return len(self.row_ids)


def _shard_knn(shard: Shard, point: np.ndarray, k: int, cancel_check) -> KnnResult:
    """Exact boundary-point k-NN inside one shard, ids remapped to global."""
    local = knn_boundary_points(shard.index, point, k, cancel_check=cancel_check)
    return KnnResult(
        row_ids=to_global_ids(shard, local.row_ids),
        distances=local.distances,
        stats=local.stats,
    )


def _kth_distance(result: KnnResult | None, k: int) -> float:
    if result is None or len(result.distances) < k:
        return float("inf")
    return float(result.distances[k - 1])


def scatter_gather_knn(
    router: ShardRouter,
    pool: Executor,
    point: np.ndarray,
    k: int,
    cancel_check=None,
) -> ShardedKnnResult:
    """Globally exact top-k across every shard of ``router``'s shard set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    point = np.asarray(point, dtype=np.float64)
    ordered = router.order_by_distance(point)
    results: list[KnnResult] = []
    failed: list[int] = []
    last_fault: StorageFault | None = None
    dispatched = 0

    # Seed m from the nearest shard(s); walk past dead ones so a faulty
    # home shard still leaves a usable bound.
    position = 0
    seed: KnnResult | None = None
    while position < len(ordered) and seed is None:
        _, shard = ordered[position]
        position += 1
        dispatched += 1
        try:
            seed = _shard_knn(shard, point, k, cancel_check)
        except StorageFault as exc:
            failed.append(shard.shard_id)
            last_fault = exc
    if seed is not None:
        results.append(seed)
    m = _kth_distance(seed, k)

    # Frontier wave: only shards whose lower bound beats the seeded m.
    # m never grows as more candidates merge, so this prune is final.
    wave = [shard for bound, shard in ordered[position:] if bound < m]
    pruned = len(ordered) - position - len(wave)
    dispatched += len(wave)
    futures = {
        pool.submit(_shard_knn, shard, point, k, cancel_check): shard
        for shard in wave
    }
    pending_error: BaseException | None = None
    for future in as_completed(futures):
        shard = futures[future]
        try:
            results.append(future.result())
        except StorageFault as exc:
            failed.append(shard.shard_id)
            last_fault = exc
        except BaseException as exc:  # deadline/cancellation: collect, re-raise
            pending_error = pending_error or exc
    if pending_error is not None:
        raise pending_error
    if not results and last_fault is not None:
        raise last_fault

    merged = merge_knn_results(results, k) if results else KnnResult(
        np.empty(0, dtype=np.int64), np.empty(0)
    )
    return ShardedKnnResult(
        row_ids=merged.row_ids,
        distances=merged.distances,
        stats=merged.stats,
        shards_dispatched=dispatched,
        shards_pruned=pruned,
        shard_faults=len(failed),
        failed_shards=tuple(sorted(failed)),
        partial=bool(failed),
    )
