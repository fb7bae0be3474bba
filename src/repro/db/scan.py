"""Scan executors: the index-free baselines.

Everything an index is compared against in the paper reduces to one of
these: a full table scan with a residual predicate, or a clustered range
scan (``BETWEEN`` over the clustered position).

A scan's candidates are simply "every row of these pages"; reading,
filtering and merge-on-read are the fetch kernel's
(:mod:`repro.db.fetch`), which the executors here call with one member,
or with the caller's :class:`~repro.db.fetch.FetchMember` per query for
:func:`batch_full_scan`.  What they inherit from it:

* a per-page retry budget (``retry``) on top of the buffer pool's: when
  the pool exhausts its backoff on a page, the scan re-attempts that one
  page before giving up -- a page lost to a fault burst mid-scan does
  not forfeit the pages already processed;
* a ``pruner`` (usually :meth:`repro.db.zonemap.ZoneMap.pruner`): pages
  it classifies ``OUTSIDE`` are skipped before any read or decode
  (counted as ``pages_skipped``), and pages classified ``INSIDE`` skip
  the predicate -- every row qualifies by construction.  The pruner must
  be derived from the same geometry as the predicate, which is the
  caller's contract;
* ``readahead``: surviving pages are grouped into runs of consecutive
  ids (at most ``readahead`` long) and each multi-page run is pulled
  into the buffer pool with one coalesced storage request before the
  page loop touches it;
* the predicate runs once per chunk of gathered rows, not once per page,
  so it sees freshly allocated column arrays, never a cached page's.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.db.expressions import Expr
from repro.db.faults import RetryPolicy
from repro.db.fetch import SCAN_RETRY, FetchMember, Outcome, fetch, range_segments, solo
from repro.db.stats import QueryStats
from repro.db.table import Table
from repro.db.zonemap import ZonePruner

__all__ = [
    "batch_full_scan",
    "full_scan",
    "range_scan",
    "predicate_from_expression",
    "AUTO_TOMBSTONES",
    "SCAN_RETRY",
]

#: Sentinel for ``tombstones=``: resolve suppression from the table's
#: own delta snapshot (the common case).  Callers that already hold a
#: query-level snapshot pass its tombstone array explicitly so every
#: scan of the query suppresses against the same consistent view.
AUTO_TOMBSTONES = object()

Predicate = Callable[[dict[str, np.ndarray]], np.ndarray]


def _resolve_delta(table: Table, tombstones, include_delta: bool):
    """Resolve ``(tombstones, snapshot)`` for one scan.

    ``snapshot`` is the delta view whose live inserts the scan appends
    (``None`` when none or when the caller appends them itself).
    """
    snapshot = None
    if tombstones is AUTO_TOMBSTONES or include_delta:
        snapshot = table.delta_snapshot()
    if tombstones is AUTO_TOMBSTONES:
        tombstones = snapshot.tombstones if snapshot is not None else None
    if not include_delta:
        snapshot = None
    return tombstones, snapshot


def _scan_member(predicate, pruner, cancel_check) -> FetchMember:
    if isinstance(predicate, Expr):
        predicate = predicate_from_expression(predicate)
    return FetchMember(predicate=predicate, pruner=pruner, cancel_check=cancel_check)


def predicate_from_expression(expr: Expr) -> Callable[[dict[str, np.ndarray]], np.ndarray]:
    """Wrap an expression tree as a page-level boolean predicate."""

    def predicate(columns: dict[str, np.ndarray]) -> np.ndarray:
        mask = expr.evaluate(columns)
        return np.asarray(mask, dtype=bool)

    return predicate


def full_scan(
    table: Table,
    predicate: Expr | Predicate | None = None,
    columns: list[str] | None = None,
    cancel_check: Callable[[], None] | None = None,
    retry: RetryPolicy | None = SCAN_RETRY,
    pruner: ZonePruner | None = None,
    readahead: int | None = None,
    tombstones=AUTO_TOMBSTONES,
    include_delta: bool = True,
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Scan every page, apply an optional predicate, project columns.

    Returns the matching rows (plus a ``_row_id`` column of global ids)
    and per-query statistics.  This is the baseline of Figure 5.

    ``cancel_check`` is invoked once per surviving page; it may raise
    (e.g. a deadline check from the query service) to abandon the scan
    cooperatively between pages.  ``retry`` bounds per-page re-attempts
    after the buffer pool's own retries are exhausted.  ``pruner`` skips
    pages as described in the module docstring -- pass one only when its
    geometry matches ``predicate``.  ``readahead`` overrides the table's
    default coalescing window (``None`` = table default, ``0``/``1``
    disables).

    Merge-on-read: ``tombstones`` (default: the table's current delta
    snapshot) suppresses deleted rows, and ``include_delta`` appends the
    delta tier's live inserts after the pages, evaluated against the
    same predicate.  Pass ``tombstones=None, include_delta=False`` for a
    main-layout-only scan (e.g. the merge itself).
    """
    tombstones, snapshot = _resolve_delta(table, tombstones, include_delta)
    return solo(
        fetch(
            table,
            [_scan_member(predicate, pruner, cancel_check)],
            range_segments(table, 0, 0, table.num_rows),
            tombstones=tombstones,
            snapshot=snapshot,
            columns=columns,
            retry=retry,
            readahead=readahead,
        )
    )


def range_scan(
    table: Table,
    start_row: int,
    stop_row: int,
    predicate: Expr | Predicate | None = None,
    tombstones=AUTO_TOMBSTONES,
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Scan only pages overlapping ``[start_row, stop_row)``.

    The engine-level realization of the paper's ``BETWEEN`` on post-order
    numbered kd-leaves or space-filling-curve cell ids, one range at a
    time (a query naming many ranges passes them all to
    :func:`~repro.db.fetch.fetch_ranges` instead).  ``tombstones``
    suppresses deleted rows as in :func:`full_scan`, but a range scan
    never appends delta inserts -- the caller owns the query-level delta
    merge and appends them exactly once.
    """
    tombstones, _ = _resolve_delta(table, tombstones, include_delta=False)
    return solo(
        fetch(
            table,
            [_scan_member(predicate, None, None)],
            range_segments(table, 0, start_row, stop_row),
            tombstones=tombstones,
        )
    )


def batch_full_scan(
    table: Table,
    members: list[FetchMember],
    retry: RetryPolicy | None = SCAN_RETRY,
    readahead: int | None = None,
    tombstones=AUTO_TOMBSTONES,
    include_delta: bool = True,
) -> tuple[list[Outcome], dict]:
    """One pass over the table evaluating every member's residual.

    The cooperative-scan move: instead of N concurrent queries each
    reading, verifying, and decoding the same pages, one scan decodes
    each surviving page once and evaluates every member's residual --
    its polyhedron over its ``dims`` or its predicate (neither: every
    row qualifies), then its IN-list ``memberships`` -- against the
    shared column arrays.  Page pruning is the *union* of the member
    pruners -- a page is read iff at least one member wants it, and each
    member that pruned it still counts it in its own ``pages_skipped``
    exactly as a solo scan would.

    Member isolation: each member's ``cancel_check`` runs before the
    member consumes a page; a check that raises (e.g. a deadline)
    removes that member from the rest of the scan -- its error is
    reported in its result slot, its partial rows are discarded, and its
    siblings continue undisturbed.  A :class:`StorageFault` from the
    shared read path (after retries) propagates to the caller.

    Returns ``(results, counters)``: ``results[i]`` is
    ``(rows, stats, error)`` with ``rows=None`` iff ``error`` is set;
    ``counters`` carries ``pages_decoded`` (pages this scan actually
    read) and ``shared_decode_hits`` (additional members served per
    decoded page beyond the first -- the work a solo execution would
    have repeated).
    """
    tombstones, snapshot = _resolve_delta(table, tombstones, include_delta)
    return fetch(
        table,
        members,
        # Page-major, so every page is named in ascending order whichever
        # members prune it.
        [
            segment
            for takers in zip(
                *(range_segments(table, m, 0, table.num_rows) for m in range(len(members)))
            )
            for segment in takers
        ],
        tombstones=tombstones,
        snapshot=snapshot,
        retry=retry,
        readahead=readahead,
    )
