"""Typed, paged, optionally clustered tables.

Tables are static once created (the paper: "we assume that the database is
static ... no new data is inserted", §3), which lets the engine lay rows
out in a *clustered order* at creation time.  Clustering is the mechanism
every index in the paper leans on:

* the layered grid clusters on ``(Layer, ContainedBy)``;
* the kd-tree clusters on leaf id (post-order numbering makes subtree
  retrieval a contiguous ``BETWEEN``);
* the Voronoi index clusters on space-filling-curve cell id.

Rows of a clustered key range then live on a contiguous run of pages, so
"rows returned / pages touched" approaches the page size -- the paper's
"practically only points which are actually returned are read from disk".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.db.buffer_pool import PageRun
from repro.db.errors import StaleLayoutError
from repro.db.pages import Page
from repro.db.zonemap import ZoneMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.db.catalog import Database

__all__ = ["ColumnSpec", "Table", "DEFAULT_ROWS_PER_PAGE"]

#: Default rows per page.  A real 8 KB page holds ~130 rows of the SDSS
#: magnitude schema (5 float64 magnitudes + id columns); 128 keeps the
#: arithmetic round.
DEFAULT_ROWS_PER_PAGE = 128


@dataclass(frozen=True)
class ColumnSpec:
    """Name and dtype of one column."""

    name: str
    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


class Table:
    """An immutable paged table.

    Use :meth:`Table.create` (usually via
    :meth:`repro.db.catalog.Database.create_table`) rather than the
    constructor.
    """

    def __init__(
        self,
        database: "Database",
        name: str,
        specs: list[ColumnSpec],
        num_rows: int,
        rows_per_page: int,
        clustered_by: tuple[str, ...] = (),
        physical_name: str | None = None,
    ):
        self._db = database
        self.name = name
        #: Storage/buffer-pool/zone-map namespace.  Equal to ``name`` for
        #: a table's first generation; a background merge bulk-loads the
        #: next generation under ``<name>@g<n>`` so in-flight queries on
        #: the old layout keep reading their pages (out-of-place swap).
        self.physical_name = physical_name or name
        self.specs = list(specs)
        self.num_rows = num_rows
        self.rows_per_page = rows_per_page
        self.clustered_by = clustered_by
        #: The ingest state active while this generation is current; set
        #: by the ingest manager, and left in place (frozen) after a
        #: merge so queries that resolved this table object keep a
        #: consistent delta view.
        self._ingest_state = None

    # -- creation ------------------------------------------------------------

    @staticmethod
    def create(
        database: "Database",
        name: str,
        data: dict[str, np.ndarray],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        clustered_by: tuple[str, ...] | list[str] = (),
        physical_name: str | None = None,
    ) -> "Table":
        """Materialize a table from column arrays.

        Parameters
        ----------
        data:
            Mapping of column name to a 1-d array; all columns must share
            their length.
        clustered_by:
            Column names to sort rows by (lexicographic, stable) before
            paging -- the clustered index of the paper.
        physical_name:
            Storage namespace; defaults to ``name``.  Merges pass
            ``<name>@g<n>`` to bulk-load a new generation out-of-place.
        """
        if not data:
            raise ValueError("table needs at least one column")
        lengths = {len(arr) for arr in data.values()}
        if len(lengths) != 1:
            raise ValueError("all columns must have equal length")
        num_rows = lengths.pop()
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be >= 1")

        columns = {name_: np.asarray(arr) for name_, arr in data.items()}
        clustered_by = tuple(clustered_by)
        if clustered_by:
            missing = [c for c in clustered_by if c not in columns]
            if missing:
                raise KeyError(f"clustered_by columns not in table: {missing}")
            order = np.lexsort([columns[c] for c in reversed(clustered_by)])
            columns = {name_: arr[order] for name_, arr in columns.items()}

        specs = [ColumnSpec(name_, arr.dtype) for name_, arr in columns.items()]
        table = Table(
            database,
            name,
            specs,
            num_rows,
            rows_per_page,
            clustered_by=clustered_by,
            physical_name=physical_name,
        )
        # Zone maps ride along with the write path: every page's min/max
        # synopsis is folded in as the page is emitted, so the map is
        # complete the moment the table is.  The map is keyed by the
        # physical namespace, so each generation regenerates its own.
        zone_columns = [spec.name for spec in specs if spec.dtype.kind in "iuf"]
        zone_map = (
            ZoneMap(table.physical_name, zone_columns)
            if zone_columns and database.zone_maps_enabled
            else None
        )
        for page_id in range(table.num_pages):
            start = page_id * rows_per_page
            stop = min(start + rows_per_page, num_rows)
            page = Page(
                page_id=page_id,
                start_row=start,
                columns={n: np.ascontiguousarray(a[start:stop]) for n, a in columns.items()},
            )
            database.buffer_pool.put(table.physical_name, page)
            if zone_map is not None:
                zone_map.observe_page(page)
        if zone_map is not None:
            database.register_zone_map(zone_map)
        return table

    # -- shape ---------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages the table occupies."""
        if self.num_rows == 0:
            return 0
        return (self.num_rows + self.rows_per_page - 1) // self.rows_per_page

    @property
    def column_names(self) -> list[str]:
        """Names of the columns in storage order."""
        return [spec.name for spec in self.specs]

    def page_of_row(self, row_id: int) -> int:
        """Page id holding a global row id."""
        if not (0 <= row_id < self.num_rows):
            raise IndexError(f"row {row_id} out of range [0, {self.num_rows})")
        return row_id // self.rows_per_page

    # -- access ----------------------------------------------------------------

    def read_page(self, page_id: int) -> Page:
        """Fetch one page through the buffer pool.

        Raises :class:`~repro.db.errors.StaleLayoutError` when the read
        fails because a background merge retired this table object's
        generation mid-query (the catalog now maps the name to a newer
        physical layout); other read failures propagate unchanged.
        """
        if not (0 <= page_id < self.num_pages):
            raise IndexError(f"page {page_id} out of range [0, {self.num_pages})")
        try:
            return self._db.buffer_pool.get(self.physical_name, page_id)
        except (KeyError, FileNotFoundError) as exc:
            self._raise_if_retired(exc)
            raise

    def read_pages(self, page_ids: list[int]) -> PageRun:
        """Fetch a run of pages through the buffer pool in one call.

        The run counterpart of :meth:`read_page` (same range check, same
        :class:`~repro.db.errors.StaleLayoutError` translation) over
        :meth:`~repro.db.buffer_pool.BufferPool.get_many`.
        """
        if page_ids and not (0 <= min(page_ids) and max(page_ids) < self.num_pages):
            raise IndexError(f"pages {page_ids} out of range [0, {self.num_pages})")
        try:
            return self._db.buffer_pool.get_many(self.physical_name, page_ids)
        except (KeyError, FileNotFoundError) as exc:
            self._raise_if_retired(exc)
            raise

    def prefetch(self, page_ids: list[int]) -> int:
        """Coalesce a batch of page reads into one storage request.

        Returns the number of pages actually fetched.  Best-effort: a
        fault mid-batch degrades to the page-at-a-time retry path of
        :meth:`read_page`, so callers never need to handle errors here
        -- except :class:`~repro.db.errors.StaleLayoutError`, which
        means this table object's generation was retired and no amount
        of per-page retrying can succeed.
        """
        valid = [pid for pid in page_ids if 0 <= pid < self.num_pages]
        if not valid:
            return 0
        try:
            return self._db.buffer_pool.prefetch(self.physical_name, valid)
        except (KeyError, FileNotFoundError) as exc:
            self._raise_if_retired(exc)
            raise

    def _raise_if_retired(self, cause: BaseException) -> None:
        """Translate a missing-namespace read error on a superseded table.

        A merge swaps a new generation into the catalog and (one merge
        later) drops the old generation's storage namespace.  A query
        that resolved this table object before the swap then sees its
        pages vanish mid-read.  When the catalog's current table for
        this name is a different object (or the table was dropped), the
        raw backend error is re-raised as
        :class:`~repro.db.errors.StaleLayoutError` so readers know to
        re-resolve and re-run instead of treating it as data loss.
        """
        if self._db.has_table(self.name):
            current = self._db.table(self.name)
            if current is self and current.physical_name == self.physical_name:
                return  # live table, genuinely missing page: not ours to mask
        raise StaleLayoutError(
            f"physical layout {self.physical_name!r} of table {self.name!r} "
            f"was retired by a merge while being read"
        ) from cause

    def zone_map(self) -> "ZoneMap | None":
        """This table's per-page min/max synopses, when the catalog has them."""
        return self._db.zone_map(self.physical_name)

    @property
    def database(self) -> "Database":
        """The catalog this table lives in (listener registration etc.)."""
        return self._db

    # -- the write path (delta tier) -------------------------------------------

    def bind_ingest_state(self, state) -> None:
        """Pin an ingest state to this generation (manager use only)."""
        self._ingest_state = state

    def insert_rows(self, data: dict[str, np.ndarray]) -> np.ndarray:
        """Insert rows; they land in the table's delta tier, WAL-first.

        Returns the delta-band row ids assigned to the new rows.  The
        rows are visible to every read path immediately (merge-on-read)
        and are folded into the main layout by the next merge.  If the
        table carries a kd index, ``kd_leaf`` is synthesized per point.
        """
        return self._db.ingest.insert(self.name, data)

    def delete_rows(self, row_ids) -> int:
        """Tombstone rows by row id (main-table or delta-band ids).

        Deleted rows disappear from every read path immediately; their
        pages are physically dropped at the next merge.  Returns the
        number of rows newly deleted.
        """
        return self._db.ingest.delete(self.name, row_ids)

    def delta_snapshot(self):
        """A consistent view of pending writes, or ``None`` when clean.

        One snapshot per query is the merge-on-read contract: take it
        once, use its tombstones for every scan of the query, and append
        its matching inserts exactly once.
        """
        state = self._ingest_state
        if state is None:
            return None
        snapshot = state.delta.snapshot()
        return None if snapshot.empty else snapshot

    def has_live_delta(self) -> bool:
        """Whether merge-on-read has any pending work for this table."""
        return self.delta_snapshot() is not None

    @property
    def layout_version(self) -> str:
        """``g<generation>.e<epoch>``: bumps on every write and merge."""
        state = self._ingest_state
        return state.layout_version if state is not None else "g0.e0"

    @property
    def num_live_rows(self) -> int:
        """Rows a full scan returns: main minus tombstones plus delta."""
        state = self._ingest_state
        if state is None:
            return self.num_rows
        snapshot = state.delta.snapshot()
        return self.num_rows - snapshot.num_tombstones + snapshot.num_rows

    @property
    def readahead_pages(self) -> int:
        """The buffer pool's default read-ahead coalescing window."""
        return self._db.buffer_pool.readahead_pages

    def scan(self) -> Iterator[Page]:
        """Yield every page in order: the full table scan."""
        for page_id in range(self.num_pages):
            yield self.read_page(page_id)

    def scan_rows(self, start_row: int, stop_row: int) -> Iterator[tuple[Page, int, int]]:
        """Yield ``(page, local_lo, local_hi)`` covering ``[start_row, stop_row)``.

        This is the engine's ``BETWEEN`` on the clustered position: only
        the pages overlapping the row range are touched.
        """
        start_row = max(0, start_row)
        stop_row = min(self.num_rows, stop_row)
        if start_row >= stop_row:
            return
        first = start_row // self.rows_per_page
        last = (stop_row - 1) // self.rows_per_page
        for page_id in range(first, last + 1):
            page = self.read_page(page_id)
            lo = max(start_row - page.start_row, 0)
            hi = min(stop_row - page.start_row, page.num_rows)
            yield page, lo, hi

    def read_rows(self, start_row: int, stop_row: int) -> dict[str, np.ndarray]:
        """Materialize the columns of a contiguous row range."""
        chunks: dict[str, list[np.ndarray]] = {n: [] for n in self.column_names}
        for page, lo, hi in self.scan_rows(start_row, stop_row):
            for name_, arr in page.columns.items():
                chunks[name_].append(arr[lo:hi])
        return {
            name_: (
                np.concatenate(parts)
                if parts
                else np.empty(0, dtype=self.dtype_of(name_))
            )
            for name_, parts in chunks.items()
        }

    def gather(self, row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Fetch arbitrary rows by global row id (results in given order).

        Row ids are grouped by page so each page is touched once per call.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        if row_ids.size == 0:
            return {n: np.empty(0, dtype=self.dtype_of(n)) for n in self.column_names}
        if row_ids.min() < 0 or row_ids.max() >= self.num_rows:
            raise IndexError("row ids out of range")
        out = {
            n: np.empty(len(row_ids), dtype=self.dtype_of(n))
            for n in self.column_names
        }
        page_ids = row_ids // self.rows_per_page
        order = np.argsort(page_ids, kind="stable")
        sorted_rows = row_ids[order]
        sorted_pages = page_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_pages)) + 1
        for group in np.split(np.arange(len(sorted_rows)), boundaries):
            page = self.read_page(int(sorted_pages[group[0]]))
            local = sorted_rows[group] - page.start_row
            for name_, arr in page.columns.items():
                out[name_][order[group]] = arr[local]
        return out

    def read_column(self, name: str) -> np.ndarray:
        """Materialize a full column (touches every page)."""
        parts = [page.columns[name] for page in self.scan()]
        if not parts:
            return np.empty(0, dtype=self.dtype_of(name))
        return np.concatenate(parts)

    def read_columns(self, names: list[str]) -> dict[str, np.ndarray]:
        """Materialize several full columns with one pass over the pages."""
        parts: dict[str, list[np.ndarray]] = {n: [] for n in names}
        for page in self.scan():
            for name_ in names:
                parts[name_].append(page.columns[name_])
        return {
            name_: (
                np.concatenate(chunks)
                if chunks
                else np.empty(0, dtype=self.dtype_of(name_))
            )
            for name_, chunks in parts.items()
        }

    def dtype_of(self, name: str) -> np.dtype:
        """Storage dtype of a column."""
        for spec in self.specs:
            if spec.name == name:
                return spec.dtype
        raise KeyError(f"no column {name!r} in table {self.name!r}")

    def __repr__(self) -> str:
        cols = ", ".join(self.column_names)
        return (
            f"Table({self.name!r}, rows={self.num_rows}, pages={self.num_pages}, "
            f"columns=[{cols}], clustered_by={list(self.clustered_by)})"
        )
