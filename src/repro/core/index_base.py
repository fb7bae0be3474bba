"""Common interface of the spatial indexes."""

from __future__ import annotations

import abc

import numpy as np

from repro.db.errors import StaleIndexError
from repro.db.stats import QueryStats
from repro.db.table import Table
from repro.geometry.boxes import Box
from repro.geometry.halfspace import Polyhedron

__all__ = ["SpatialIndex", "refuse_pending_inserts"]


class SpatialIndex(abc.ABC):
    """A spatial access method over one clustered table.

    Each concrete index owns the clustered table it created at build time
    (the engine's tables are immutable, so "adding index columns and
    re-clustering", as the paper does in SQL Server, becomes "materialize
    the clustered table at index build").
    """

    @property
    @abc.abstractmethod
    def table(self) -> Table:
        """The clustered data table backing this index."""

    @property
    @abc.abstractmethod
    def dims(self) -> list[str]:
        """Ordered names of the indexed coordinate columns."""

    @abc.abstractmethod
    def query_polyhedron(
        self, polyhedron: Polyhedron
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """All rows whose coordinates lie inside the convex polyhedron."""

    def query_box(self, box: Box) -> tuple[dict[str, np.ndarray], QueryStats]:
        """All rows inside an axis-aligned box (as a polyhedron query)."""
        return self.query_polyhedron(Polyhedron.from_box(box))

    def points_of(self, rows: dict[str, np.ndarray]) -> np.ndarray:
        """Stack the coordinate columns of a result set into ``(n, d)``."""
        return np.column_stack([rows[name] for name in self.dims])


def stack_coordinates(data: dict[str, np.ndarray], dims: list[str]) -> np.ndarray:
    """Stack and validate the coordinate columns an index is built over.

    Every spatial index requires finite coordinates: a NaN magnitude
    would silently fall out of every box and halfspace test (IEEE
    comparisons with NaN are false), corrupting results rather than
    failing loudly.  Real pipelines filter unmeasured magnitudes before
    indexing; we enforce that contract here.
    """
    missing = [d for d in dims if d not in data]
    if missing:
        raise KeyError(f"index dims not in data: {missing}")
    points = np.column_stack([np.asarray(data[d], dtype=np.float64) for d in dims])
    if not np.all(np.isfinite(points)):
        bad = int(np.count_nonzero(~np.isfinite(points).all(axis=1)))
        raise ValueError(
            f"{bad} rows have non-finite coordinates in {dims}; "
            "filter or impute them before building a spatial index"
        )
    return points


def refuse_pending_inserts(table: Table, kind: str) -> None:
    """Raise :class:`~repro.db.errors.StaleIndexError` if ``table`` holds
    live delta inserts.

    For the indexes whose ranges address main pages only.  A superseded
    generation keeps its frozen delta, so an index left behind by a merge
    keeps refusing rather than serving the pre-merge rows.
    """
    snapshot = table.delta_snapshot()
    if snapshot is not None and snapshot.num_rows:
        raise StaleIndexError(
            f"{kind} index on table {table.name!r} cannot see the "
            f"{snapshot.num_rows} pending inserts of layout "
            f"{table.layout_version!r}; merge the table and rebuild the index"
        )
