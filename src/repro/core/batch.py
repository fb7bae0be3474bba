"""Shared-work batch execution over the kd-tree and the scan.

The paper's headline numbers (Figure 5, §3.2) are single-query; under
concurrent traffic the same hot pages get read, CRC-verified, and
predicate-filtered once *per query*, and the kd-tree's top levels get
re-walked once per query.  This module amortizes that shared work across
a micro-batch of queries:

* :func:`batch_kd_query` lifts the Figure 4 traversal to a *query set*:
  each tree node is visited once and classified against every member
  polyhedron still active there -- OUTSIDE members drop out of the
  subtree, INSIDE members bulk-claim the node's clustered row range, and
  PARTIAL members recurse.  The claimed ranges of all members are then
  served by one call of the fetch kernel (:func:`repro.db.fetch.fetch`),
  which decodes each needed page once.
* :class:`BatchResult` / :class:`BatchMemberResult` are the engine-level
  contract: per-member outcomes stay independent (one member's deadline
  or fault never drops its batch siblings), plus batch-level counters
  for the work sharing the service surfaces in its metrics.

The scan-side counterpart lives in :func:`repro.db.scan.batch_full_scan`;
the per-query planner front end is
:meth:`repro.core.planner.QueryPlanner.execute_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.db.fetch import FetchMember, Outcome, fetch, range_segments
from repro.geometry.boxes import BoxRelation
from repro.geometry.halfspace import Polyhedron

__all__ = ["BatchMemberResult", "BatchResult", "batch_kd_query"]


@dataclass
class BatchMemberResult:
    """Per-member outcome of a batch execution: a plan or an error.

    Exactly one of ``planned`` / ``error`` is set.  ``planned`` is a
    :class:`~repro.core.planner.PlannedQuery` (typed loosely to keep the
    module import-cycle-free); ``error`` carries whatever the member's
    own cancel check or degraded solo re-execution raised.
    """

    planned: Any | None = None
    error: BaseException | None = None


@dataclass
class BatchResult:
    """Outcome of one micro-batch, demultiplexed per member.

    ``occupancy`` is the number of queries co-executed;
    ``pages_decoded`` counts pages the shared passes actually read, and
    ``shared_decode_hits`` counts the extra members each decoded page
    served beyond the first -- the reads/decodes a solo execution of the
    same members would have repeated.
    """

    members: list[BatchMemberResult] = field(default_factory=list)
    occupancy: int = 0
    pages_decoded: int = 0
    shared_decode_hits: int = 0


def batch_kd_query(
    index,
    polyhedra: Sequence[Polyhedron],
    cancel_checks: Sequence[Callable[[], None] | None] | None = None,
    use_tight_boxes: bool = True,
    use_zone_maps: bool = True,
    memberships_list: Sequence[dict | None] | None = None,
) -> tuple[list[Outcome], dict]:
    """Evaluate several polyhedron queries in one kd traversal + fetch.

    The traversal visits each node once, carrying the set of members for
    whom the node is still unresolved; the claimed row ranges of every
    member then go to the fetch kernel as one segment list, so each
    surviving page is decoded exactly once and sliced for every member
    that claimed rows on it (each member's zone-map pruner applies to
    its residual-filter ranges only; INSIDE-subtree ranges are bulk
    returns whose contract is "every clustered row in range").
    Per-member results are identical to running
    :meth:`KdTreeIndex.query_polyhedron` solo.

    Member isolation matches :func:`repro.db.scan.batch_full_scan`: a
    member whose ``cancel_check`` raises is dropped mid-batch with its
    partial rows discarded, siblings unaffected.  A
    :class:`~repro.db.errors.StorageFault` from the shared read path
    propagates, letting the caller degrade to solo execution.

    Returns ``(results, counters)`` shaped exactly like
    :func:`~repro.db.scan.batch_full_scan`'s.

    ``memberships_list`` gives per-member IN-list filters (column ->
    values).  The traversal still classifies on the polyhedron alone (a
    superset); the kernel ANDs each member's ``np.isin`` mask into
    every row it returns, INSIDE-subtree rows included.
    """
    tree = index.tree
    table = index.table
    dims = index.dims
    n = len(polyhedra)
    checks = list(cancel_checks) if cancel_checks is not None else [None] * n
    memberships = (
        list(memberships_list) if memberships_list is not None else [None] * n
    )
    for polyhedron in polyhedra:
        if polyhedron.dim != len(dims):
            raise ValueError(
                f"polyhedron dim {polyhedron.dim} != index dim {len(dims)}"
            )
    zone_map = table.zone_map() if use_zone_maps else None
    members = [
        FetchMember(
            polyhedron=polyhedron,
            dims=dims,
            memberships=memberships[m],
            pruner=zone_map.pruner(polyhedron, dims) if zone_map is not None else None,
            cancel_check=checks[m],
        )
        for m, polyhedron in enumerate(polyhedra)
    ]

    # -- one multi-box traversal (Figure 4 over a query set) ---------------
    ranges: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    stack: list[tuple[int, tuple[int, ...]]] = [(1, tuple(range(n)))]
    while stack:
        node, active = stack.pop()
        live: list[int] = []
        for m in active:
            member = members[m]
            if member.error is not None:
                continue
            if member.cancel_check is not None:
                try:
                    member.cancel_check()
                except BaseException as exc:
                    member.error = exc
                    continue
            live.append(m)
        if not live:
            continue
        start, end, box = tree.visit_info(node, use_tight_boxes)
        if start == end:
            continue
        deeper: list[int] = []
        for m in live:
            stats = members[m].stats
            stats.nodes_visited += 1
            relation = polyhedra[m].classify_box(box)
            if relation is BoxRelation.OUTSIDE:
                stats.cells_outside += 1
            elif relation is BoxRelation.INSIDE:
                stats.cells_inside += 1
                ranges[m].append((start, end, False))
            elif tree.is_leaf(node):
                stats.cells_partial += 1
                ranges[m].append((start, end, True))
            else:
                deeper.append(m)
        if deeper:
            stack.append((2 * node + 1, tuple(deeper)))
            stack.append((2 * node, tuple(deeper)))

    # One delta snapshot serves the whole batch: it suppresses tombstoned
    # rows in every member's fetch and contributes its matching inserts
    # to every member's result (merge-on-read).
    snapshot = table.delta_snapshot()
    segments = [
        segment
        for m in range(n)
        for start, end, needs_filter in ranges[m]
        for segment in range_segments(table, m, start, end, needs_filter)
    ]
    # Page order (stable, so member order within a page) lets the kernel
    # coalesce reads across members' ranges.
    segments.sort(key=itemgetter(0))
    return fetch(
        table,
        members,
        segments,
        tombstones=snapshot.tombstones if snapshot is not None else None,
        snapshot=snapshot,
    )
