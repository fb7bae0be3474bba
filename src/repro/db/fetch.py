"""The fetch kernel: everything a query does after candidate generation.

The paper's query shape (Figure 4/5) is *index names candidate row
ranges, a ``BETWEEN`` fetches them, a residual filter decides*.  Every
engine here produces its candidates differently -- the scan names every
page, the bitmap index names candidate row offsets, and the range engines
(the kd-tree and the Voronoi, R-tree and layered-grid side indexes) name
INSIDE/PARTIAL clustered row ranges through :func:`fetch_ranges` -- and
then hands them to :func:`fetch` as **segments** ``(page_id, member,
selection, needs_filter)``:

* ``member`` indexes the :class:`FetchMember` (one per query of the
  batch; solo is a batch of one) that claimed the rows;
* ``selection`` is a local ``(lo, hi)`` row range of the page or an
  int64 array of local row offsets;
* ``needs_filter`` says the member's geometric residual (polyhedron or
  generic predicate) still has to decide these rows.  Such a segment
  first consults the member's zone pruner: OUTSIDE drops it before any
  read (``pages_skipped``), INSIDE clears the flag.  A segment that
  arrives with the flag off is an index-proven bulk return and never
  sees the pruner.  IN-list memberships and tombstones apply to every
  segment either way.

The kernel owns the rest: the page plan and its coalesced read-ahead
runs, one read of each page (per-member ``cancel_check`` before the
member consumes a page, per-member ``QueryStats``, the ``pages_decoded``
/ ``shared_decode_hits`` sharing counters), the gather of the selected
rows, the residual, tombstone suppression, and the delta tier's
merge-on-read piece.  Pages are read in the order the segment list first
names them, and a page serves all of its segments at that one read.

One order rule holds for every engine and every batch size, a batch of
one included: segments come in the order the engine's candidate
generation produces them, never re-sorted.  The scan and the bitmap
engines produce ascending pages, page-major across members.  The kd
traversal produces right-first depth-first range order, every member
resolving at a node named together, so pages the members share still
coalesce; a query that ends on the low pages leaves in the buffer pool
exactly what the next ascending scan starts with.

The read unit is the **run**: consecutive planned pages, at most the
read-ahead window long, are fetched with one
:meth:`~repro.db.table.Table.read_pages` call (one buffer-pool lock, one
coalesced storage request for the misses) when the kernel reaches the
run's first page, and the run's segments are then served from the pages
that call returned.  Pages outside any run, and any page of a run whose
read failed with a :class:`~repro.db.errors.StorageFault`, are read one
at a time under ``retry``.  The residual runs **once per chunk**, not
once per page, and a chunk is filtered before it is gathered:
selections accumulate per member and are flushed every ``_CHUNK_ROWS``
rows.  A flush first copies only what its filters read -- the residual's
``dims`` straight into one ``(d, n)`` float64 block for one
``contains_points`` call, the IN-list columns for one ``np.isin`` each
-- then applies the tombstone mask to the survivors' row ids, which are
formed for the survivors only.  The survivors' float64 ``dims`` come out
of the block in one take; every other wanted column is gathered and
taken once, for the survivors.  Assembly fills one preallocated array
per column.  Selections no residual applies to are kept as views of the
cached pages and copied exactly once, at assembly.

The kernel never writes into an array it did not allocate: masks and
columns a predicate returns may alias a cached page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.db.errors import StorageFault
from repro.db.faults import RetryPolicy, call_with_retries
from repro.db.pages import Page
from repro.db.stats import QueryStats
from repro.db.table import Table
from repro.db.zonemap import ZonePruner
from repro.geometry.boxes import BoxRelation
from repro.geometry.halfspace import Polyhedron

__all__ = [
    "SCAN_RETRY",
    "FetchMember",
    "delta_piece",
    "fetch",
    "fetch_ranges",
    "offset_segments",
    "query_members",
    "range_segments",
    "solo",
]

#: Per-page retry budget of the kernel, applied after (on top of) the
#: buffer pool's own retries.
SCAN_RETRY = RetryPolicy(attempts=2, backoff_s=0.002)

#: Rows a member accumulates before its residual runs.  Large enough
#: that the per-call numpy overhead vanishes (32 default pages per
#: call), small enough that the gathered columns stay cache-resident
#: (~300 KB).  It matches the block of the residual's own matrix
#: product, :data:`~repro.geometry.halfspace.CONTAINS_BLOCK_ROWS`.
_CHUNK_ROWS = 4096

#: ``(page_id, member, selection, needs_filter)``.
Segment = tuple[int, int, "tuple[int, int] | np.ndarray", bool]

Outcome = tuple["dict[str, np.ndarray] | None", QueryStats, "BaseException | None"]


@dataclass
class FetchMember:
    """One query's residual, as the kernel applies it.

    The geometric residual is either ``polyhedron`` over the columns
    ``dims`` or a generic ``predicate`` over a column dict (what the
    scans accept); ``memberships`` maps columns to IN-list values.
    ``cancel_check`` may raise to drop this member from the rest of the
    fetch: the exception lands in ``error``, its rows are discarded and
    its siblings continue.  An engine that already did work for the
    member (a traversal) passes the ``stats`` it counted into, and the
    ``error`` it caught, so the kernel carries on from there.
    """

    polyhedron: Polyhedron | None = None
    dims: Sequence[str] = ()
    predicate: Callable[[dict[str, np.ndarray]], np.ndarray] | None = None
    memberships: dict[str, np.ndarray] | None = None
    pruner: ZonePruner | None = None
    cancel_check: Callable[[], None] | None = None
    stats: QueryStats = field(default_factory=QueryStats)
    error: BaseException | None = None


def query_members(
    polyhedra: Sequence[Polyhedron | None],
    dims: Sequence[str],
    cancel_checks: Sequence[Callable[[], None] | None] | None = None,
    memberships_list: Sequence[dict | None] | None = None,
) -> list[FetchMember]:
    """One member per polyhedron query over ``dims``, with its check and IN-lists.

    Raises :class:`ValueError` when a polyhedron's dimensionality is not
    ``len(dims)``.
    """
    n = len(polyhedra)
    checks = cancel_checks if cancel_checks is not None else [None] * n
    memberships = memberships_list if memberships_list is not None else [None] * n
    for polyhedron in polyhedra:
        if polyhedron is not None and polyhedron.dim != len(dims):
            raise ValueError(f"polyhedron dim {polyhedron.dim} != index dim {len(dims)}")
    return [
        FetchMember(polyhedron=polyhedron, dims=dims, memberships=listed, cancel_check=check)
        for polyhedron, check, listed in zip(polyhedra, checks, memberships)
    ]


class _Chunk:
    """One member's pending ``(page, selection)`` pairs, gathered on demand.

    Row ranges concatenate as views of their pages.  Row-offset arrays
    are cheaper taken all at once: the pages' whole columns are
    concatenated and indexed with one flat offset array, instead of one
    small fancy-index per page and column.  A column a filter reads is
    kept for the gather of the survivors; no other column is touched
    before the filters have run.
    """

    __slots__ = ("items", "rows", "_local", "_lengths", "_flat", "_read")

    def __init__(self, items: list, rows: int):
        self.items = items
        self.rows = rows
        self._flat = None
        self._read: dict[str, np.ndarray] = {}
        if any(type(sel) is not slice for _, sel in items):
            self._local, self._lengths = _local_offsets(items)
            sizes = [page.num_rows for page, _ in items]
            self._flat = self._local + np.repeat(np.cumsum([0] + sizes[:-1]), self._lengths)

    def _gather(self, name: str, out: np.ndarray | None = None) -> np.ndarray:
        """Every row of column ``name``, into ``out`` (which may cast) when given."""
        if self._flat is None:
            return np.concatenate([page.columns[name][sel] for page, sel in self.items], out=out)
        whole = np.concatenate([page.columns[name] for page, _ in self.items])
        if out is None or out.dtype == whole.dtype:
            # "clip" writes straight into ``out``; "raise" would buffer.
            return whole.take(self._flat, out=out, mode="clip")
        out[...] = whole.take(self._flat, mode="clip")
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        """Every row of column ``name``, kept for :meth:`take`: a filter reads it."""
        arr = self._read.get(name)
        if arr is None:
            arr = self._read[name] = self._gather(name)
        return arr

    def block(self, dims: Sequence[str]) -> np.ndarray:
        """The residual's columns as one ``(len(dims), rows)`` float64 block."""
        block = np.empty((len(dims), self.rows))
        for row, name in zip(block, dims):
            self._gather(name, out=row)
        return block

    def take(self, name: str, keep: np.ndarray | None) -> np.ndarray:
        """Column ``name`` at chunk positions ``keep`` (``None``: every row)."""
        arr = self._read.get(name)
        if arr is None:
            arr = self._gather(name)
        return arr if keep is None else arr.take(keep)

    def row_ids(self, keep: np.ndarray | None) -> np.ndarray:
        """Global row ids at chunk positions ``keep`` (``None``: every row).

        A range chunk forms ids for the survivors only.  An offset chunk
        (the bitmap's few rows per page) forms them all and takes the
        survivors: cheaper than locating each survivor's page.
        """
        if self._flat is not None:
            starts = [page.start_row for page, _ in self.items]
            row_ids = self._local + np.repeat(starts, self._lengths)
            return row_ids if keep is None else row_ids.take(keep)
        sizes = np.array([sel.stop - sel.start for _, sel in self.items])
        ends = np.cumsum(sizes)
        # Row id minus chunk position: one constant per range.
        shifts = np.array([page.start_row + sel.start for page, sel in self.items])
        shifts -= ends - sizes
        if keep is None:
            return np.arange(self.rows) + np.repeat(shifts, sizes)
        return keep + shifts[np.searchsorted(ends, keep, side="right")]


class _Accumulator:
    """One member's selections awaiting their residual, and finished pieces."""

    __slots__ = ("member", "bulk", "pending", "pending_rows", "pieces")

    def __init__(self, member: FetchMember):
        self.member = member
        #: ``(page, selection)`` pairs no residual applies to.
        self.bulk: list[tuple[Page, slice | np.ndarray]] = []
        #: Pairs awaiting a flush, keyed by "geometry still undecided".
        self.pending: dict[bool, list] = {True: [], False: []}
        self.pending_rows = {True: 0, False: 0}
        self.pieces: list[dict[str, np.ndarray]] = []


def range_segments(
    table: Table, member: int, start: int, end: int, needs_filter: bool = True
) -> list[Segment]:
    """Segments covering the clustered row range ``[start, end)``."""
    rows_per_page = table.rows_per_page
    start = max(0, start)
    end = min(table.num_rows, end)
    if start >= end:
        return []
    first, last = start // rows_per_page, (end - 1) // rows_per_page
    whole = (0, rows_per_page)
    segments = [(page_id, member, whole, needs_filter) for page_id in range(first, last + 1)]
    # Only the two end pages can be cut (or short: the table's last page).
    for page_id in {first, last}:
        base = page_id * rows_per_page
        selection = (max(start - base, 0), min(end - base, rows_per_page))
        segments[page_id - first] = (page_id, member, selection, needs_filter)
    return segments


def offset_segments(table: Table, member: int, rows: np.ndarray) -> list[Segment]:
    """Segments for a sorted array of main-tier row positions."""
    if not len(rows):
        return []
    rows_per_page = table.rows_per_page
    pages = rows // rows_per_page
    local = np.asarray(rows - pages * rows_per_page, dtype=np.int64)
    cuts = (np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist()
    return [
        (page_id, member, local[start:stop], True)
        for page_id, start, stop in zip(
            pages[[0, *cuts]].tolist(), [0, *cuts], [*cuts, len(rows)]
        )
    ]


def solo(outcome: tuple[list[Outcome], dict]) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Unwrap a batch-of-one result, re-raising the member's error."""
    rows, stats, error = outcome[0][0]
    if error is not None:
        raise error
    return rows, stats


def _alive_mask(row_ids: np.ndarray, tombstones: np.ndarray) -> np.ndarray:
    """Rows not suppressed by a sorted tombstone array."""
    pos = np.searchsorted(tombstones, row_ids)
    pos = np.minimum(pos, len(tombstones) - 1)
    return tombstones[pos] != row_ids


def _membership_mask(columns, memberships: dict[str, np.ndarray]) -> np.ndarray:
    """AND of one ``np.isin`` per IN-list column."""
    mask = None
    for name, values in memberships.items():
        piece = np.isin(columns[name], values)
        mask = piece if mask is None else mask & piece
    return mask


def _read_page_retrying(table: Table, page_id: int, retry: RetryPolicy | None) -> Page:
    if retry is None:
        return table.read_page(page_id)
    return call_with_retries(lambda: table.read_page(page_id), retry)


def _coalesced_runs(page_ids: list[int], window: int) -> list[list[int]]:
    """Split page ids into runs of consecutive ids, each at most ``window``."""
    runs: list[list[int]] = []
    run: list[int] = []
    for page_id in page_ids:
        if run and (page_id != run[-1] + 1 or len(run) >= window):
            runs.append(run)
            run = []
        run.append(page_id)
    if run:
        runs.append(run)
    return runs


def delta_piece(
    snapshot, member: FetchMember, wanted: list[str] | None = None
) -> dict[str, np.ndarray] | None:
    """The delta tier's live inserts that pass ``member``'s residual.

    Merge-on-read: pending inserts join a result as if they were one
    more page, decoded zero pages.  Counts into ``member.stats``;
    returns ``None`` when nothing matches.
    """
    if snapshot is None or not snapshot.num_rows:
        return None
    stats = member.stats
    stats.rows_examined += snapshot.num_rows
    if member.polyhedron is not None:
        # More chunks for the residual: a box reject, else
        # contains_points over the snapshot's cached coordinates.
        columns, row_ids = snapshot.match(member.polyhedron, dims=tuple(member.dims))
        mask = None
    else:
        columns, row_ids = snapshot.columns, snapshot.row_ids
        mask = None if member.predicate is None else np.asarray(
            member.predicate(columns), dtype=bool
        )
    if member.memberships and len(row_ids):
        listed = _membership_mask(columns, member.memberships)
        mask = listed if mask is None else mask & listed
    if mask is not None:
        columns = {name: arr[mask] for name, arr in columns.items()}
        row_ids = row_ids[mask]
    if not len(row_ids):
        return None
    stats.rows_returned += len(row_ids)
    piece = {name: columns[name] for name in (wanted or columns)}
    piece["_row_id"] = row_ids
    return piece


def _local_offsets(items: list) -> tuple[np.ndarray, list[int]]:
    """The local row offsets of ``(page, selection)`` pairs, concatenated, and their counts."""
    local = [
        np.arange(sel.start, sel.stop) if type(sel) is slice else sel
        for _, sel in items
    ]
    return np.concatenate(local), [len(part) for part in local]


def _row_ids(items: list) -> np.ndarray:
    """Global row ids of ``(page, selection)`` pairs."""
    local, lengths = _local_offsets(items)
    return local + np.repeat([page.start_row for page, _ in items], lengths)


def _flush(
    acc: _Accumulator,
    geometry: bool,
    tombstones: np.ndarray | None,
    wanted: list[str],
    table_columns: list[str],
) -> None:
    """Filter one member's pending chunk, then gather its survivors."""
    items = acc.pending[geometry]
    if not items:
        return
    chunk = _Chunk(items, acc.pending_rows[geometry])
    acc.pending[geometry] = []
    acc.pending_rows[geometry] = 0
    member = acc.member
    mask = block = None
    if geometry:
        if member.polyhedron is not None:
            block = chunk.block(member.dims)
            mask = member.polyhedron.contains_points(block.T)
        else:
            # A generic predicate may read any column, by any dict method.
            mask = np.asarray(
                member.predicate({name: chunk[name] for name in table_columns}),
                dtype=bool,
            )
    if member.memberships:
        listed = _membership_mask(chunk, member.memberships)
        mask = listed if mask is None else mask & listed
    keep = None if mask is None else np.flatnonzero(mask)
    if keep is not None and not len(keep):
        return
    row_ids = chunk.row_ids(keep)
    if tombstones is not None:
        alive = _alive_mask(row_ids, tombstones)
        row_ids = row_ids[alive]
        keep = np.flatnonzero(alive) if keep is None else keep[alive]
    matched = len(row_ids)
    if matched == 0:
        return
    member.stats.rows_returned += matched
    if matched == chunk.rows:
        keep = None
    piece = {}
    if block is not None:
        # The float64 columns of the residual come out of the block, all
        # in one take; other dtypes are gathered from their pages, so a
        # returned column keeps its stored dtype and every bit.
        kept = block if keep is None else block.take(keep, axis=1)
        page = items[0][0]
        for row, name in zip(kept, member.dims):
            if name in wanted and page.columns[name].dtype == np.float64:
                piece[name] = row
    for name in wanted:
        if name not in piece:
            piece[name] = chunk.take(name, keep)
    piece["_row_id"] = row_ids
    acc.pieces.append(piece)


def _filled(parts: list, total: int, dtype) -> np.ndarray:
    """``parts`` copied into one new array of ``total`` rows."""
    out = np.empty(total, dtype=dtype)
    if parts:
        np.concatenate(parts, out=out)
    return out


def _assemble(table: Table, wanted: list[str], acc: _Accumulator) -> dict[str, np.ndarray]:
    """One preallocated array per column, filled from the bulk views and the pieces."""
    row_ids = [_row_ids(acc.bulk)] if acc.bulk else []
    row_ids += [piece["_row_id"] for piece in acc.pieces]
    total = sum(len(part) for part in row_ids)
    result: dict[str, np.ndarray] = {}
    for name in wanted:
        parts = [page.columns[name][sel] for page, sel in acc.bulk]
        parts += [piece[name] for piece in acc.pieces]
        result[name] = _filled(parts, total, table.dtype_of(name))
    result["_row_id"] = _filled(row_ids, total, np.int64)
    return result


def fetch(
    table: Table,
    members: Sequence[FetchMember],
    segments: Iterable[Segment],
    tombstones: np.ndarray | None = None,
    snapshot=None,
    columns: list[str] | None = None,
    retry: RetryPolicy | None = SCAN_RETRY,
    readahead: int | None = None,
) -> tuple[list[Outcome], dict]:
    """Serve every member's segments, reading each needed page once.

    ``tombstones`` (a sorted row-id array) suppresses deleted rows in
    every segment; ``snapshot`` (a delta snapshot) contributes its
    matching live inserts to every member once, after the pages.  The
    two are separate because a caller may own the query-level delta
    merge itself and want suppression only.  ``columns`` projects the
    result, ``retry`` bounds per-page re-attempts after the buffer
    pool's own, ``readahead`` overrides the table's coalescing window
    (``0``/``1`` disables).

    Returns ``(results, counters)``: ``results[i]`` is ``(rows, stats,
    error)`` with ``rows=None`` iff ``error`` is set -- rows carry the
    ``wanted`` columns plus ``_row_id``, in no particular order;
    ``counters`` holds ``pages_decoded`` (pages this call read) and
    ``shared_decode_hits`` (additional members served per page beyond
    the first).  A :class:`~repro.db.errors.StorageFault` from the
    shared read path (after retries) propagates to the caller.
    """
    wanted = list(columns) if columns is not None else table.column_names
    table_columns = table.column_names
    if tombstones is not None and not len(tombstones):
        tombstones = None
    accumulators = [_Accumulator(member) for member in members]
    has_geometry = [
        member.polyhedron is not None or member.predicate is not None
        for member in members
    ]
    counters = {"pages_decoded": 0, "shared_decode_hits": 0}

    # Plan: which members take which page, and whether their geometric
    # residual is still open there.
    plan: dict[int, list] = {}
    for page_id, m, selection, needs_filter in segments:
        member = members[m]
        if member.error is not None:
            continue
        if needs_filter and member.pruner is not None:
            relation = member.pruner.classify(page_id)
            if relation is BoxRelation.OUTSIDE:
                member.stats.pages_skipped += 1
                continue
            needs_filter = relation is not BoxRelation.INSIDE
        takers = plan.get(page_id)
        if takers is None:
            takers = plan[page_id] = []
        takers.append((m, selection, needs_filter))

    page_ids = list(plan)  # first-named order: see the module docstring
    window = readahead if readahead is not None else table.readahead_pages
    runs_at: dict[int, list[int]] = {}
    if window > 1:
        for run in _coalesced_runs(page_ids, window):
            if len(run) > 1:
                runs_at[run[0]] = run
    ready: dict[int, Page] = {}  # pages of the current run not yet served

    namespace = table.name
    checked_at = [-1] * len(members)
    for page_id in page_ids:
        live = []
        sharers = 0
        for taker in plan[page_id]:
            m = taker[0]
            member = members[m]
            if member.error is not None:
                continue
            if checked_at[m] != page_id:
                # Once per member per page, however many of its segments
                # land here.
                checked_at[m] = page_id
                if member.cancel_check is not None:
                    try:
                        member.cancel_check()
                    except BaseException as exc:
                        member.error = exc
                        continue
                sharers += 1
            live.append(taker)
        if not live:
            if all(member.error is not None for member in members):
                break
            continue
        run = runs_at.get(page_id)
        if run is not None:
            try:
                pages = table.read_pages(run)
            except StorageFault:
                pass  # what the run did not deliver is read page by page below
            else:
                ready = dict(zip(run, pages))
                # Attributed to the first live member so service-level
                # sums still equal the pages actually prefetched.
                members[live[0][0]].stats.pages_prefetched += pages.fetched
        page = ready.pop(page_id, None)
        if page is None:
            page = _read_page_retrying(table, page_id, retry)
        counters["pages_decoded"] += 1
        counters["shared_decode_hits"] += sharers - 1
        for m, selection, needs_filter in live:
            acc = accumulators[m]
            member = acc.member
            member.stats.record_page(namespace, page_id)
            if type(selection) is tuple:
                rows = selection[1] - selection[0]
                selection = slice(*selection)
            else:
                rows = len(selection)
            member.stats.rows_examined += rows
            geometry = bool(needs_filter) and has_geometry[m]
            if not geometry and tombstones is None and not member.memberships:
                member.stats.rows_returned += rows
                acc.bulk.append((page, selection))
                continue
            acc.pending[geometry].append((page, selection))
            acc.pending_rows[geometry] += rows
            if acc.pending_rows[geometry] >= _CHUNK_ROWS:
                _flush(acc, geometry, tombstones, wanted, table_columns)

    results: list[Outcome] = []
    for acc in accumulators:
        member = acc.member
        if member.error is not None:
            results.append((None, member.stats, member.error))
            continue
        _flush(acc, True, tombstones, wanted, table_columns)
        _flush(acc, False, tombstones, wanted, table_columns)
        piece = delta_piece(snapshot, member, wanted)
        if piece is not None:
            acc.pieces.append(piece)
        results.append((_assemble(table, wanted, acc), member.stats, None))
    return results, counters


def fetch_ranges(
    table: Table,
    members: Sequence[FetchMember],
    ranges: Iterable[tuple[int, int, int, bool]],
    use_zone_maps: bool = True,
    columns: list[str] | None = None,
) -> tuple[list[Outcome], dict]:
    """Serve ``(member, start, end, needs_filter)`` clustered row ranges.

    With ``use_zone_maps`` on (and a zone map in the catalog) each live
    member's PARTIAL ranges (``needs_filter``) skip the pages entirely
    outside its polyhedron and drop the filter on those entirely inside;
    INSIDE ranges never see the pruner.  One delta snapshot serves the
    call: its tombstones suppress deleted rows in every range, and its
    live inserts matching a member join that member.  One :func:`fetch`
    reads each page once, however many ranges name it.
    """
    zone_map = table.zone_map() if use_zone_maps else None
    if zone_map is not None:
        for member in members:
            if member.error is None:
                member.pruner = zone_map.pruner(member.polyhedron, member.dims)
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
        columns=columns,
    )
