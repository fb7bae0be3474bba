"""Bitmap-driven query executors: solo, batched, and hybrid.

The execution shape mirrors the scan/kd executors exactly -- same
``(rows, QueryStats)`` contract solo, same ``(results, counters)``
contract batched -- so the planner can treat the bitmap engine as a
drop-in third path:

1. AND/OR the per-bin compressed bitmaps into a candidate row superset
   (zero pages touched -- the whole point);
2. hand the surviving rows, as per-page row offsets, to the fetch
   kernel (:mod:`repro.db.fetch`), which zone-prunes the pages, pulls
   the survivors through the coalesced read-ahead, decodes each once,
   applies the **full residual** (polyhedron + memberships + tombstones)
   to the candidate rows only, and merges the delta tier on read (the
   bitmap, built at the last merge, does not cover it).

Hybrid execution (bitmap prefilter -> kd residual) intersects the
candidate rows with the kd traversal's INSIDE/PARTIAL clustered row
ranges: the kd-tree prunes where the *joint* geometry is selective, the
bitmaps prune where *per-axis* predicates are, and the intersection
inherits both.  Correct because candidate sets and kd ranges are each
conservative supersets of the answer's main-tier rows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from repro.bitmap.index import BitmapIndex
from repro.db.fetch import (
    SCAN_RETRY,
    FetchMember,
    Outcome,
    fetch,
    offset_segments,
    query_members,
    solo,
)
from repro.db.stats import QueryStats
from repro.geometry.halfspace import Polyhedron

__all__ = ["bitmap_query", "batch_bitmap_query", "hybrid_query", "batch_hybrid_query"]


def _restrict_to_ranges(
    candidates: np.ndarray, ranges: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Keep candidate rows falling in any ``[start, end)`` clustered range."""
    if not len(ranges) or not len(candidates):
        return candidates[:0]
    bounds = np.asarray(ranges, dtype=np.int64)
    lo = np.searchsorted(candidates, bounds[:, 0], side="left")
    hi = np.searchsorted(candidates, bounds[:, 1], side="left")
    # Ranges open at ``lo`` and close at ``hi``; a candidate is kept while
    # at least one is open (so overlapping ranges cost nothing extra).
    size = len(candidates) + 1
    depth = np.bincount(lo, minlength=size) - np.bincount(hi, minlength=size)
    return candidates[np.cumsum(depth[:-1]) > 0]


def _fetch_candidates(
    index: BitmapIndex,
    members: list[FetchMember],
    candidate_rows_list,
    use_zone_maps: bool,
    retry,
    ranges_list=None,
) -> tuple[list[Outcome], dict]:
    """Name each live member's candidate rows and fetch them in one pass.

    ``ranges_list`` (hybrid) restricts each member's candidates to its
    kd ranges.
    """
    table = index.table
    n = len(members)
    known_rows = list(candidate_rows_list) if candidate_rows_list is not None else [None] * n
    # One consistent snapshot serves planning and fetch for every member.
    snapshot = table.delta_snapshot()
    zone_map = table.zone_map() if use_zone_maps else None

    # Candidate rows per member: compressed-word ops only, no page read.
    segments = []
    for m, member in enumerate(members):
        if member.error is not None:
            continue
        if member.cancel_check is not None:
            try:
                member.cancel_check()
            except BaseException as exc:
                member.error = exc
                continue
        rows = known_rows[m]
        if rows is None:
            rows = index.candidate_rows(member.polyhedron, member.memberships)
        if rows is None:
            # Nothing constrained the index: every main-tier row is a
            # candidate (the residual filter still decides membership).
            rows = np.arange(table.num_rows, dtype=np.int64)
        if ranges_list is not None:
            rows = _restrict_to_ranges(rows, ranges_list[m])
        member.stats.extra["bitmap_candidate_rows"] = int(len(rows))
        if zone_map is not None and member.polyhedron is not None:
            member.pruner = zone_map.pruner(member.polyhedron, member.dims)
        segments += offset_segments(table, m, rows)

    # Page-major across members (stable, so member order within a page):
    # each member's candidates come ascending, their union does not.
    segments.sort(key=itemgetter(0))
    return fetch(
        table,
        members,
        segments,
        tombstones=snapshot.tombstones if snapshot is not None else None,
        snapshot=snapshot,
        retry=retry,
    )


def batch_bitmap_query(
    index: BitmapIndex,
    polyhedra: Sequence[Polyhedron],
    cancel_checks: Sequence[Callable[[], None] | None] | None = None,
    memberships_list: Sequence[dict | None] | None = None,
    use_zone_maps: bool = True,
    retry=SCAN_RETRY,
    candidate_rows_list: Sequence[np.ndarray | None] | None = None,
) -> tuple[list[Outcome], dict]:
    """Serve a micro-batch of queries off shared candidate-page decodes.

    Per-member candidate bitmaps are computed independently (cheap word
    ops) and handed to the fetch kernel (:func:`repro.db.fetch.fetch`)
    as per-page row-offset segments; the kernel decodes the union of
    candidate pages once, each page serving every member with candidates
    on it, and applies each member's full residual to its candidates.
    Member isolation and the ``(results, counters)`` contract match
    :func:`repro.db.scan.batch_full_scan`; a :class:`StorageFault` from
    the shared read path propagates.

    ``candidate_rows_list`` hands over candidate rows a caller already
    computed from ``index`` for exactly these queries (the planner
    prices the bitmap engine with them), sparing the second AND.
    """
    members = query_members(polyhedra, index.dims, cancel_checks, memberships_list)
    return _fetch_candidates(index, members, candidate_rows_list, use_zone_maps, retry)


def bitmap_query(
    index: BitmapIndex,
    polyhedron: Polyhedron,
    memberships: dict[str, np.ndarray] | None = None,
    cancel_check: Callable[[], None] | None = None,
    use_zone_maps: bool = True,
    retry=SCAN_RETRY,
    candidate_rows: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Answer one polyhedron + membership query through the bitmap index.

    A batch of one of :func:`batch_bitmap_query`.
    """
    return solo(
        batch_bitmap_query(
            index,
            [polyhedron],
            cancel_checks=[cancel_check],
            memberships_list=[memberships],
            use_zone_maps=use_zone_maps,
            retry=retry,
            candidate_rows_list=[candidate_rows],
        )
    )


def hybrid_query(
    kd_index,
    bitmap_index: BitmapIndex,
    polyhedron: Polyhedron,
    memberships: dict[str, np.ndarray] | None = None,
    cancel_check: Callable[[], None] | None = None,
    use_tight_boxes: bool = True,
    use_zone_maps: bool = True,
    candidate_rows: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Bitmap prefilter intersected with the kd traversal's row ranges.

    A batch of one of :func:`batch_hybrid_query`.
    """
    return solo(
        batch_hybrid_query(
            kd_index,
            bitmap_index,
            [polyhedron],
            cancel_checks=[cancel_check],
            memberships_list=[memberships],
            use_tight_boxes=use_tight_boxes,
            use_zone_maps=use_zone_maps,
            candidate_rows_list=[candidate_rows],
        )
    )


def batch_hybrid_query(
    kd_index,
    bitmap_index: BitmapIndex,
    polyhedra: Sequence[Polyhedron],
    cancel_checks: Sequence[Callable[[], None] | None] | None = None,
    memberships_list: Sequence[dict | None] | None = None,
    use_tight_boxes: bool = True,
    use_zone_maps: bool = True,
    candidate_rows_list: Sequence[np.ndarray | None] | None = None,
) -> tuple[list[Outcome], dict]:
    """Hybrid execution for a member group, sharing the walk and the fetch.

    One kd traversal (:meth:`~repro.core.kdtree.KdTreeIndex.candidate_ranges`,
    in memory, no page I/O) names every member's clustered row ranges;
    each member's bitmap candidates are intersected with its ranges, and
    one fetch pass serves them all.  The traversal counts into the same
    stats as the fetch, so ``nodes_visited`` / ``cells_*`` read like a
    kd query while ``pages_touched`` reflects the intersected candidate
    set.
    """
    members = query_members(polyhedra, bitmap_index.dims, cancel_checks, memberships_list)
    ranges_list = kd_index.candidate_ranges(members, use_tight_boxes)
    return _fetch_candidates(
        bitmap_index, members, candidate_rows_list, use_zone_maps, SCAN_RETRY, ranges_list
    )
