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
  (:func:`repro.db.fetch.fetch_ranges`), which decodes each needed page once.
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

from repro.db.fetch import Outcome, fetch_ranges, query_members
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

    Zone pruning of PARTIAL-leaf ranges (``use_zone_maps``) and
    merge-on-read are :func:`~repro.db.fetch.fetch_ranges`'s.
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
    members = query_members(polyhedra, index.dims, cancel_checks, memberships_list)
    ranges = index.traverse(members, use_tight_boxes)
    return fetch_ranges(index.table, members, ranges, use_zone_maps)
