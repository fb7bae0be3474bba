"""Storage-fault exception hierarchy.

The paper's indexes ran inside SQL Server, where a page read can fail
transiently (I/O subsystem hiccup), return torn/corrupt bytes (detected
by page checksums, ``PAGE_VERIFY CHECKSUM``), or a write can fail
outright.  The engine's contract is that none of these crash the server:
reads are retried, corruption is detected rather than silently decoded,
and queries that cannot recover fail with a structured error.

This module is the shared vocabulary for that contract.  It sits at the
bottom of the ``repro.db`` import graph (it imports nothing) so the page
codec, the storage backends, the buffer pool, the scan executors, the
planner, and the query service can all agree on what is retryable:

* :class:`TransientIOError` -- the read may succeed if retried;
* :class:`CorruptPageError` -- the bytes decoded wrong; a re-read may
  return a good copy (torn read), so it is also treated as retryable;
* :class:`WriteFault` -- a page write failed; never retried implicitly
  (the caller decides whether the half-written state is recoverable,
  e.g. via the write-ahead log).

All three derive from :class:`StorageFault`, which is what the layers
above catch when they degrade (planner index -> scan fallback) or
convert to a structured per-query error (the service executor).

:class:`StaleLayoutError` is deliberately *not* a :class:`StorageFault`:
nothing about the storage failed.  It means a background merge retired
the physical generation a query was reading mid-flight, so re-reading
the same pages can never succeed -- the only correct recovery is to
re-resolve the table through the catalog and re-run against the current
layout, which the planner does.

:class:`StaleIndexError` is its counterpart for an index that is behind
the table rather than a table that is behind the catalog: the side
indexes (Voronoi, R-tree, layered grid) address clustered row ranges of
the main pages and do not merge the delta tier on read, so while a table
holds pending inserts they refuse to answer instead of dropping rows.
"""

from __future__ import annotations

__all__ = [
    "StorageFault",
    "TransientIOError",
    "CorruptPageError",
    "WriteFault",
    "StaleLayoutError",
    "StaleIndexError",
]


class StorageFault(Exception):
    """Base class for every storage-level failure the engine can survive."""


class TransientIOError(StorageFault, OSError):
    """A read failed in a way that may succeed on retry."""


class CorruptPageError(StorageFault, ValueError):
    """Page bytes failed verification (bad magic, checksum, or shape).

    Subclasses :class:`ValueError` for compatibility with callers that
    predate the fault subsystem and catch decode errors broadly.
    """


class WriteFault(StorageFault, OSError):
    """A page write failed; the page may be missing or stale in storage."""


class StaleLayoutError(RuntimeError):
    """A read hit a physical generation that a merge has since retired.

    Raised by :meth:`~repro.db.table.Table.read_page` (and ``prefetch``)
    when the backing namespace is gone *and* the catalog holds a newer
    generation of the same table -- the reader captured a table object
    whose layout moved out from under it.  Retrying the read is useless;
    callers must re-resolve the table and re-run.  Genuinely missing
    pages of a live table still surface as the backend's own error.
    """


class StaleIndexError(RuntimeError):
    """An index was asked to answer over inserts it cannot see.

    Raised by the indexes that read main pages only when their table's
    delta tier holds live inserts.  The message names the table and its
    ``layout_version``; retrying is useless until a merge has folded the
    inserts into a new generation and the index is rebuilt over it.
    Deletes never raise: every clustered range read applies tombstones.
    """
