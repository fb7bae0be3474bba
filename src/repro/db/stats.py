"""I/O and execution statistics.

Every performance claim in the reproduction is expressed in terms of these
counters (pages read, cache hits, rows filtered), because wall-clock time
in pure Python does not transfer from the paper's testbed while the I/O
profile does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

__all__ = ["IOStats", "QueryStats"]


@dataclass
class IOStats:
    """Mutable counters shared by a storage backend and its buffer pool.

    Counters may be incremented from many worker threads at once (the
    query service runs concurrent scans over one storage backend), so
    increments go through :meth:`add`, which holds an internal lock.
    Plain attribute reads stay lock-free: a torn read can only observe a
    slightly stale count, never a corrupted one.

    The I/O-acceleration counters decompose a page fetch into its parts:
    ``checksum_verifications`` counts actual decode-and-verify passes,
    ``decode_hits`` counts fetches whose bytes matched an already-decoded
    copy (CRC and decode both skipped), ``pages_prefetched`` counts pages
    brought in by coalesced read-ahead, and ``coalesced_reads`` counts
    the multi-page storage requests those rode in on.

    The index counters cover paged kd-trees (:mod:`repro.core.kdpaged`):
    ``node_cache_hits`` / ``node_cache_misses`` are probes of a tree's
    decoded node cache, ``index_pages_decoded`` counts node pages
    materialized into that cache (one per miss), and
    ``node_cache_evictions`` counts node pages pushed out by the byte
    budget.
    """

    page_reads: int = 0
    page_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    read_faults: int = 0
    read_retries: int = 0
    checksum_verifications: int = 0
    decode_hits: int = 0
    pages_prefetched: int = 0
    coalesced_reads: int = 0
    index_pages_decoded: int = 0
    node_cache_hits: int = 0
    node_cache_misses: int = 0
    node_cache_evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    _COUNTERS = (
        "page_reads",
        "page_writes",
        "bytes_read",
        "bytes_written",
        "cache_hits",
        "cache_misses",
        "read_faults",
        "read_retries",
        "checksum_verifications",
        "decode_hits",
        "pages_prefetched",
        "coalesced_reads",
        "index_pages_decoded",
        "node_cache_hits",
        "node_cache_misses",
        "node_cache_evictions",
    )

    def add(self, **deltas: int) -> None:
        """Atomically increment any subset of the counters."""
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._COUNTERS:
                    raise TypeError(f"unknown IOStats counter {name!r}")
                setattr(self, name, getattr(self, name) + delta)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            for name in self._COUNTERS:
                setattr(self, name, 0)

    def snapshot(self) -> "IOStats":
        """An independent copy of the current counters."""
        with self._lock:
            return IOStats(**{name: getattr(self, name) for name in self._COUNTERS})

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of the counters (for reports and JSON)."""
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}

    def __str__(self) -> str:
        return (
            f"IOStats(reads={self.page_reads}, writes={self.page_writes}, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )


# Every counter must be an init-able dataclass field (snapshot relies on it).
assert set(IOStats._COUNTERS) == {
    f.name for f in fields(IOStats) if f.init
}, "IOStats._COUNTERS out of sync with its fields"


@dataclass
class QueryStats:
    """Per-query execution statistics returned next to result sets.

    ``pages_touched`` counts *distinct* pages: two leaf ranges sharing a
    boundary page cost one page fetch, exactly as they do through the
    buffer pool.  Executors report pages via :meth:`record_page`.

    ``pages_skipped`` counts candidate pages a zone map proved
    non-contributing before any read or decode; ``pages_prefetched``
    counts pages this query pulled in through coalesced read-ahead.
    """

    rows_examined: int = 0
    rows_returned: int = 0
    cells_inside: int = 0
    cells_outside: int = 0
    cells_partial: int = 0
    nodes_visited: int = 0
    pages_skipped: int = 0
    pages_prefetched: int = 0
    extra: dict = field(default_factory=dict)
    _pages: set = field(default_factory=set, repr=False)

    @property
    def pages_touched(self) -> int:
        """Number of distinct pages this query read."""
        return len(self._pages)

    def record_page(self, namespace: str, page_id: int) -> None:
        """Note that a page was read on behalf of this query."""
        self._pages.add((namespace, page_id))

    @property
    def filter_efficiency(self) -> float:
        """Fraction of examined rows that made it into the result."""
        if self.rows_examined == 0:
            return 1.0
        return self.rows_returned / self.rows_examined

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one.

        ``extra`` entries are summed when numeric (so per-shard counters
        like ``boxes_examined`` aggregate across a scatter-gather merge)
        and first-writer-wins otherwise.
        """
        self._pages |= other._pages
        self.rows_examined += other.rows_examined
        self.rows_returned += other.rows_returned
        self.cells_inside += other.cells_inside
        self.cells_outside += other.cells_outside
        self.cells_partial += other.cells_partial
        self.nodes_visited += other.nodes_visited
        self.pages_skipped += other.pages_skipped
        self.pages_prefetched += other.pages_prefetched
        for key, value in other.extra.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.extra.setdefault(key, value)
            else:
                self.extra[key] = self.extra.get(key, 0) + value
