"""Result cache: repeat queries served without touching a single page.

Figure 2's traffic is heavily repetitive -- popular cuts (the LRG
selection, bright-star windows) recur across clients -- so an LRU of
completed result sets sits in front of the executor.  Entries are keyed
by a *normalized fingerprint* of the query: the polyhedron's halfspaces
are scale-normalized, rounded, and sorted, so the same geometric
question always lands on the same key regardless of how its inequalities
were spelled.  The cache subscribes to catalog mutations
(:meth:`repro.db.catalog.Database.add_mutation_listener`), so dropping
or recreating a table evicts every result computed from it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.geometry.halfspace import Polyhedron

__all__ = ["ResultCache", "query_fingerprint"]


def query_fingerprint(
    table_name: str,
    dims: list[str],
    polyhedron: Polyhedron,
    index_name: str = "planner",
    layout_version: str = "",
    memberships: dict[str, Any] | None = None,
) -> str:
    """A stable key for one polyhedron query against one table.

    Each halfspace ``a . x <= b`` is normalized by ``|a|`` (so scaled
    duplicates of an inequality collide), rounded to 9 decimals (so
    arithmetic noise collides), and the rows are sorted lexicographically
    (so conjunct order is irrelevant).  The table, dims, and access-path
    family are folded in so distinct targets never share a key.
    ``layout_version`` is the engine's physical-layout digest (shard
    boundaries for a sharded engine): repartitioning changes the version,
    so stale entries keyed under the old layout can never be served.
    ``memberships`` (column -> IN-list values) folds each sorted value
    set in by column name, so the same box with different IN lists never
    collides.
    """
    normals = np.asarray(polyhedron.normals, dtype=np.float64)
    offsets = np.asarray(polyhedron.offsets, dtype=np.float64)
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0.0] = 1.0
    stacked = np.column_stack([normals / norms[:, None], offsets / norms])
    stacked = np.round(stacked, 9) + 0.0  # +0.0 folds -0.0 into +0.0
    order = np.lexsort(stacked.T[::-1])
    digest = hashlib.sha1()
    digest.update(table_name.encode())
    digest.update(b"|")
    digest.update(",".join(dims).encode())
    digest.update(b"|")
    digest.update(index_name.encode())
    digest.update(b"|")
    digest.update(layout_version.encode())
    digest.update(b"|")
    digest.update(np.ascontiguousarray(stacked[order]).tobytes())
    for col in sorted(memberships or ()):
        values = np.unique(np.asarray(memberships[col], dtype=np.float64))
        digest.update(b"|in:")
        digest.update(col.encode())
        digest.update(b":")
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def _approx_nbytes(value: Any) -> int:
    """Approximate heap footprint of a cached result.

    Cached values are :class:`~repro.core.planner.PlannedQuery` objects
    (or anything row-shaped); the dominant cost is the numpy arrays of
    the result rows, so that is what is counted.  Unrecognized shapes
    cost a symbolic minimum so an entry is never free.
    """
    rows = getattr(value, "rows", value)
    if isinstance(rows, dict):
        return max(
            sum(int(getattr(arr, "nbytes", 0)) for arr in rows.values()), 1
        )
    return 1


class ResultCache:
    """Thread-safe LRU of completed query results with hit/miss counters.

    Eviction is double-bounded: by entry count (``capacity``) and by the
    approximate bytes the cached row sets pin (``max_bytes``) -- one huge
    low-selectivity result can no longer crowd the process just because
    it is a single entry.  ``max_bytes=None`` disables the byte bound.

    Values are treated as immutable by contract: a hit returns the same
    object that was inserted, shared by every requester.
    """

    def __init__(self, capacity: int = 256, max_bytes: int | None = 64 << 20):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 or None")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, tuple[str, Any, int]] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def cache_bytes(self) -> int:
        """Approximate bytes currently pinned by cached results."""
        with self._lock:
            return self._bytes

    def get(self, key: str) -> Any | None:
        """Look up a fingerprint; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: str, table_name: str, value: Any) -> None:
        """Insert (or refresh) a completed result for a table's query."""
        nbytes = _approx_nbytes(value)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[2]
            self._entries[key] = (table_name, value, nbytes)
            self._bytes += nbytes
            self.insertions += 1
            # Evict LRU-first until both bounds hold; the newest entry
            # itself may go when it alone exceeds the byte budget.
            while self._entries and (
                len(self._entries) > self.capacity
                or (self.max_bytes is not None and self._bytes > self.max_bytes)
            ):
                _, (_, _, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes

    def invalidate_table(self, table_name: str) -> int:
        """Evict every result computed from ``table_name``; returns count."""
        with self._lock:
            stale = [k for k, (t, _, _) in self._entries.items() if t == table_name]
            for key in stale:
                self._bytes -= self._entries.pop(key)[2]
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop everything (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def hit_rate(self) -> float:
        """Hits / lookups so far (0.0 before any lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters(self) -> dict[str, float]:
        """Snapshot of the cache accounting."""
        with self._lock:
            return {
                "capacity": float(self.capacity),
                "entries": float(len(self._entries)),
                "cache_bytes": float(self._bytes),
                "max_bytes": float(self.max_bytes) if self.max_bytes else 0.0,
                "hits": float(self.hits),
                "misses": float(self.misses),
                "insertions": float(self.insertions),
                "invalidations": float(self.invalidations),
                "hit_rate": self.hit_rate,
            }
