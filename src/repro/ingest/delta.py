"""The delta tier: a small write-optimized side table per base table.

Inserts and deletes land here instead of rewriting the immutable main
pages.  The tier keeps appended column chunks plus two tombstone sets
(main-row ids and delta ordinals) behind a lock, and hands queries an
immutable :class:`DeltaSnapshot` -- one snapshot per query gives each
query a consistent view regardless of concurrent writers (the
linearization point of a merge-on-read query is the instant its
snapshot is taken).

Delta rows get row ids in a reserved band starting at ``DELTA_BASE`` so
they can never collide with main-table row ids; sharded executors embed
the shard id in the band with ``SHARD_STRIDE``.

Snapshots keep no spatial index over their points.  Merge-on-read
treats the delta as more chunks for the residual filter: reject the
query against the snapshot's cached bounding box, else run
``contains_points`` over the cached ``(n, d)`` coordinates, which
blocks its own matrix product
(:data:`~repro.geometry.halfspace.CONTAINS_BLOCK_ROWS`).  At the sizes
a merge threshold allows (thousands to tens of thousands of rows) that
vectorised pass is faster than any structure that has to be rebuilt
after every write.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import Polyhedron

__all__ = [
    "DELTA_BASE",
    "SHARD_STRIDE",
    "DeltaSnapshot",
    "DeltaTier",
    "is_delta_id",
]

#: Row ids at or above this value denote delta-tier rows.
DELTA_BASE = 1 << 48
#: Width of one shard's delta-id band inside the delta range.
SHARD_STRIDE = 1 << 32


def is_delta_id(row_ids: np.ndarray) -> np.ndarray:
    """Boolean mask of which row ids belong to the delta band."""
    return np.asarray(row_ids) >= DELTA_BASE


class DeltaSnapshot:
    """An immutable, consistent view of a delta tier at one epoch.

    ``columns`` hold only the *live* inserted rows (insert-then-delete
    rows are already removed); ``row_ids`` are their delta-band ids and
    ``tombstones`` is the sorted array of deleted main-table row ids.
    """

    def __init__(
        self,
        epoch: int,
        columns: dict[str, np.ndarray],
        row_ids: np.ndarray,
        tombstones: np.ndarray,
        dims: tuple[str, ...] = (),
    ):
        self.epoch = epoch
        self.columns = columns
        self.row_ids = row_ids
        self.tombstones = tombstones
        self.dims = dims
        #: dims -> ((n, d) points, their bounding box); filled on first use.
        self._geometry: dict[tuple[str, ...], tuple[np.ndarray, Box | None]] = {}

    @property
    def num_rows(self) -> int:
        """Live inserted rows visible in this snapshot."""
        return len(self.row_ids)

    @property
    def num_tombstones(self) -> int:
        """Main-table rows this snapshot suppresses."""
        return len(self.tombstones)

    @property
    def empty(self) -> bool:
        """Whether merge-on-read can skip this snapshot entirely."""
        return self.num_rows == 0 and self.num_tombstones == 0

    def _geometry_of(
        self, dims: tuple[str, ...] | None
    ) -> tuple[np.ndarray, Box | None]:
        dims = tuple(dims) if dims is not None else self.dims
        cached = self._geometry.get(dims)
        if cached is None:
            if self.num_rows:
                pts = np.column_stack(
                    [np.asarray(self.columns[d], dtype=np.float64) for d in dims]
                )
                cached = (pts, Box.from_points(pts))
            else:
                cached = (np.empty((0, len(dims))), None)
            self._geometry[dims] = cached
        return cached

    def points(self, dims: tuple[str, ...] | None = None) -> np.ndarray:
        """Stacked ``(n, d)`` float64 coordinates of the live rows."""
        return self._geometry_of(dims)[0]

    def bounding_box(self, dims: tuple[str, ...] | None = None) -> Box | None:
        """Tight box around the live delta points (None when empty)."""
        return self._geometry_of(dims)[1]

    def match_mask(
        self, polyhedron: Polyhedron, dims: tuple[str, ...] | None = None
    ) -> np.ndarray:
        """Which live delta rows satisfy the polyhedron."""
        pts, box = self._geometry_of(dims)
        if box is None or polyhedron.classify_box(box) is BoxRelation.OUTSIDE:
            return np.zeros(len(pts), dtype=bool)
        return polyhedron.contains_points(pts)

    def match(
        self,
        polyhedron: Polyhedron,
        dims: tuple[str, ...] | None = None,
        columns: list[str] | None = None,
    ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Matching rows as ``(columns, row_ids)`` for result assembly."""
        mask = self.match_mask(polyhedron, dims)
        wanted = columns if columns is not None else list(self.columns)
        if not mask.any():
            empty = {c: self.columns[c][:0] for c in wanted}
            return empty, self.row_ids[:0]
        return (
            {c: self.columns[c][mask] for c in wanted},
            self.row_ids[mask],
        )

    def project(self, columns: list[str] | None = None) -> dict[str, np.ndarray]:
        """All live rows restricted to ``columns`` (all columns if None)."""
        wanted = columns if columns is not None else list(self.columns)
        return {c: self.columns[c] for c in wanted}

    def alive(self, row_ids: np.ndarray) -> np.ndarray:
        """Mask of main-table row ids *not* suppressed by a tombstone."""
        if not len(self.tombstones):
            return np.ones(len(row_ids), dtype=bool)
        pos = np.searchsorted(self.tombstones, row_ids)
        pos = np.minimum(pos, len(self.tombstones) - 1)
        return self.tombstones[pos] != row_ids


class DeltaTier:
    """The mutable write tier of one table (or one shard's table).

    Thread-safe: writers append under a lock; readers take snapshots.
    A merge *freezes* the tier it drained -- the frozen tier stays
    attached to the superseded table generation so in-flight queries
    that already resolved the old layout keep a consistent view, while
    new writes go to the fresh tier installed with the new generation.
    """

    def __init__(
        self,
        dtypes: dict[str, np.dtype],
        dims: tuple[str, ...] = (),
        base_row_id: int = DELTA_BASE,
    ):
        self.dtypes = {name: np.dtype(dt) for name, dt in dtypes.items()}
        self.dims = tuple(dims)
        self.base_row_id = base_row_id
        self._lock = threading.Lock()
        self._chunks: list[dict[str, np.ndarray]] = []
        self._num_inserted = 0
        self._main_tombstones: set[int] = set()
        self._delta_tombstones: set[int] = set()
        self._epoch = 0
        self._frozen = False
        self._snapshot: DeltaSnapshot | None = None

    # -- write side ---------------------------------------------------------

    def insert(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Append rows; returns their delta-band row ids."""
        cast = {}
        lengths = set()
        for name, dtype in self.dtypes.items():
            if name not in columns:
                raise KeyError(f"insert missing column {name!r}")
            arr = np.ascontiguousarray(columns[name], dtype=dtype)
            cast[name] = arr
            lengths.add(len(arr))
        extra = set(columns) - set(self.dtypes)
        if extra:
            raise KeyError(f"insert has unknown columns {sorted(extra)}")
        if len(lengths) != 1:
            raise ValueError("insert columns must share one length")
        (n,) = lengths
        with self._lock:
            if self._frozen:
                raise RuntimeError("delta tier is frozen (superseded by a merge)")
            start = self._num_inserted
            self._chunks.append(cast)
            self._num_inserted += n
            self._bump()
        return np.arange(
            self.base_row_id + start, self.base_row_id + start + n, dtype=np.int64
        )

    def delete(self, row_ids: np.ndarray) -> tuple[int, int]:
        """Tombstone rows by id; returns ``(main_deleted, delta_deleted)``.

        Main-table ids are recorded for read-time suppression and merge-
        time removal; delta-band ids kill not-yet-merged inserts.  Ids
        already deleted are counted once (idempotent).
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        delta_mask = row_ids >= DELTA_BASE
        with self._lock:
            if self._frozen:
                raise RuntimeError("delta tier is frozen (superseded by a merge)")
            before_main = len(self._main_tombstones)
            before_delta = len(self._delta_tombstones)
            for gid in row_ids[delta_mask]:
                ordinal = int(gid) - self.base_row_id
                if not 0 <= ordinal < self._num_inserted:
                    raise IndexError(f"unknown delta row id {int(gid)}")
                self._delta_tombstones.add(ordinal)
            self._main_tombstones.update(int(i) for i in row_ids[~delta_mask])
            if len(row_ids):
                self._bump()
            return (
                len(self._main_tombstones) - before_main,
                len(self._delta_tombstones) - before_delta,
            )

    def freeze(self) -> None:
        """Refuse further writes (the tier has been merged away)."""
        with self._lock:
            self._frozen = True

    def _bump(self) -> None:
        self._epoch += 1
        self._snapshot = None

    # -- read side ----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone write counter; folded into ``layout_version``."""
        return self._epoch

    @property
    def num_live(self) -> int:
        """Inserted rows still visible."""
        return self._num_inserted - len(self._delta_tombstones)

    @property
    def num_tombstones(self) -> int:
        """Main-table rows currently suppressed."""
        return len(self._main_tombstones)

    @property
    def churn(self) -> int:
        """Total pending work a merge would drain (inserts + deletes)."""
        return self._num_inserted + len(self._main_tombstones)

    def snapshot(self) -> DeltaSnapshot:
        """A consistent, immutable view (cached until the next write)."""
        with self._lock:
            if self._snapshot is not None:
                return self._snapshot
            if self._num_inserted:
                columns = {
                    name: np.concatenate([c[name] for c in self._chunks])
                    for name in self.dtypes
                }
            else:
                columns = {
                    name: np.empty(0, dtype=dt) for name, dt in self.dtypes.items()
                }
            row_ids = np.arange(
                self.base_row_id,
                self.base_row_id + self._num_inserted,
                dtype=np.int64,
            )
            if self._delta_tombstones:
                dead = np.fromiter(
                    self._delta_tombstones, dtype=np.int64, count=len(self._delta_tombstones)
                )
                keep = np.ones(self._num_inserted, dtype=bool)
                keep[dead] = False
                columns = {name: arr[keep] for name, arr in columns.items()}
                row_ids = row_ids[keep]
            tombstones = np.sort(
                np.fromiter(
                    self._main_tombstones,
                    dtype=np.int64,
                    count=len(self._main_tombstones),
                )
            )
            self._snapshot = DeltaSnapshot(
                self._epoch, columns, row_ids, tombstones, dims=self.dims
            )
            return self._snapshot
