"""The kd engine over a member set, and the batch outcome contract.

Below the shard coordinator every query runs as a member of a batch; a
solo query is a batch of one.  Under concurrent traffic the same hot
pages would otherwise be read, CRC-verified, and predicate-filtered once
*per query*, and the kd-tree's top levels re-walked once per query:

* :func:`batch_kd_query` runs the Figure 4 walk
  (:meth:`repro.core.kdtree.KdTreeIndex.traverse`) once for the whole
  member set -- level by level, each level's nodes gathered once and
  classified against every member still active at them -- and serves
  every member's claimed row ranges with one call of the fetch kernel
  (:func:`repro.db.fetch.fetch`), which decodes each needed page once.
  :meth:`~repro.core.kdtree.KdTreeIndex.query_polyhedron` is its batch
  of one.
* :class:`BatchResult` / :class:`BatchMemberResult` are the engine-level
  contract: per-member outcomes stay independent (one member's deadline
  or fault never drops its batch siblings), plus batch-level counters
  for the work sharing the service surfaces in its metrics.

The scan-side counterpart lives in :func:`repro.db.scan.batch_full_scan`;
the planner front end, solo and batched, is
:meth:`repro.core.planner.QueryPlanner.execute_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.db.fetch import Outcome, fetch, query_members, range_segments
from repro.geometry.halfspace import Polyhedron

__all__ = ["BatchMemberResult", "BatchResult", "batch_kd_query"]


@dataclass
class BatchMemberResult:
    """Per-member outcome of a batch execution: a plan or an error.

    Exactly one of ``planned`` / ``error`` is set.  ``planned`` is a
    :class:`~repro.core.planner.PlannedQuery` (typed loosely to keep the
    module import-cycle-free); ``error`` carries whatever the member
    raised: its own cancel check, a malformed query, or the storage
    fault of the scan pass it ended up in.
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

    :meth:`~repro.core.kdtree.KdTreeIndex.traverse` names every member's
    clustered row ranges (the ``BETWEEN``s) in one level-by-level walk:
    each level's node boxes are classified against every member still
    active there in one array pass per member, INSIDE subtrees are bulk
    returns, PARTIAL leaves still need the residual filter.  One call of
    the fetch kernel then serves all of them in the order the walk
    names them (right-first depth-first), so each surviving page is
    decoded once and sliced for every member that claimed rows on it.

    With ``use_zone_maps`` on (and a zone map in the catalog), each
    member's PARTIAL-leaf ranges also prune at page granularity: a leaf
    that straddles the query boundary usually holds pages entirely
    outside it -- skipped -- and pages entirely inside it, whose
    per-point filter is skipped.  INSIDE subtrees never see the pruner:
    their contract is "every clustered row in range".

    Merge-on-read: one delta snapshot serves the whole call; its
    tombstones suppress deleted rows in every range, and its live
    inserts matching a member's polyhedron join that member's result.
    ``memberships_list`` gives per-member IN-list filters (column ->
    values); the walk still classifies on the polyhedron alone (a
    superset) and the kernel ANDs each member's ``np.isin`` mask into
    every row it returns, INSIDE-subtree rows included.

    Member isolation matches :func:`repro.db.scan.batch_full_scan`: a
    member whose ``cancel_check`` raises (once per step of the walk,
    before every page read in the fetch) is dropped mid-batch with
    its partial rows discarded, siblings unaffected.  A
    :class:`~repro.db.errors.StorageFault` from the shared read path
    propagates.  Returns ``(results, counters)`` shaped exactly like
    :func:`~repro.db.scan.batch_full_scan`'s.
    """
    table = index.table
    dims = index.dims
    members = query_members(polyhedra, dims, cancel_checks, memberships_list)
    ranges = index.traverse(members, use_tight_boxes)
    zone_map = table.zone_map() if use_zone_maps else None
    if zone_map is not None:
        for member in members:
            if member.error is None:
                member.pruner = zone_map.pruner(member.polyhedron, dims)
    snapshot = table.delta_snapshot()
    return fetch(
        table,
        members,
        [
            segment
            for m, start, end, needs_filter in ranges
            for segment in range_segments(table, m, start, end, needs_filter)
        ],
        tombstones=snapshot.tombstones if snapshot is not None else None,
        snapshot=snapshot,
    )
