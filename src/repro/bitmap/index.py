"""Per-column binned bitmap index over a clustered engine table.

Bin-based bitmap indexing (Krčál, Ho & Holub, arXiv 2108.13735) in the
engine's terms: every indexed column is cut into equi-depth bins (edges
from quantiles, so skewed magnitudes get evenly loaded bins) and each
bin stores one :class:`~repro.bitmap.compressed.CompressedBitmap` over
the table's main-tier row positions.  A conjunctive query then:

1. turns each *axis-aligned* halfspace into a per-axis interval,
2. ORs the bitmaps of the bins overlapping each interval,
3. ANDs across axes (and IN-list membership columns) -- all on
   compressed words, before any data page is read or decoded.

The result is a **conservative candidate superset**: bins are coarser
than values, and halfspaces with more than one nonzero coefficient
(oblique cuts) never constrain it.  Executors therefore always apply
the full residual predicate to candidate rows -- the index buys page
pruning, never answers.  This is deliberately stricter than
:meth:`repro.db.histogram.HistogramStatistics.estimate_polyhedron`,
whose dominant-axis division is fine for an *estimate* but unsound for
candidate pruning.

The index covers the main tier of one table generation; delta-tier rows
are merged on read by the executors, and merges rebuild the index for
the new generation (see :mod:`repro.ingest.merge`).
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.compressed import CompressedBitmap
from repro.db.faults import call_with_retries
from repro.geometry.halfspace import Polyhedron

__all__ = ["BitmapIndex", "axis_bounds", "DEFAULT_BITMAP_BINS"]

#: Default bins per column; 32 keeps a 5-D index's bin bitmaps at ~3%
#: expected density each, where the sparse word form compresses well.
DEFAULT_BITMAP_BINS = 32


def axis_bounds(
    polyhedron: Polyhedron, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis ``[low, high]`` intervals implied by axis-aligned halfspaces.

    Only halfspaces with exactly one nonzero coefficient constrain an
    axis; oblique halfspaces are ignored (the caller's residual filter
    handles them), so the returned box always contains the polyhedron.
    Unconstrained axes come back as ``(-inf, +inf)``.
    """
    lows = np.full(dim, -np.inf)
    highs = np.full(dim, np.inf)
    for halfspace in polyhedron.halfspaces:
        nonzero = np.flatnonzero(halfspace.normal)
        if len(nonzero) != 1:
            continue
        axis = int(nonzero[0])
        coefficient = halfspace.normal[axis]
        bound = halfspace.offset / coefficient
        if coefficient > 0:
            highs[axis] = min(highs[axis], bound)
        else:
            lows[axis] = max(lows[axis], bound)
    return lows, highs


class BitmapIndex:
    """Equi-depth binned bitmaps for every indexed column of a table.

    Registered in the catalog as ``<table>.bitmap`` next to the kd-tree's
    ``<table>.kdtree``; the planner resolves it per query, so a merge
    swapping a rebuilt index in is picked up without re-wiring.
    """

    def __init__(
        self,
        database,
        table,
        dims: list[str],
        edges: dict[str, np.ndarray],
        bitmaps: dict[str, list[CompressedBitmap]],
        bin_counts: dict[str, np.ndarray],
    ):
        self._db = database
        self._table = table
        self._dims = list(dims)
        self._edges = edges
        self._bitmaps = bitmaps
        self._bin_counts = bin_counts

    # -- build ---------------------------------------------------------------

    @staticmethod
    def build(
        database,
        name: str,
        dims: list[str],
        num_bins: int = DEFAULT_BITMAP_BINS,
        columns: dict[str, np.ndarray] | None = None,
        register: bool = True,
        retry=None,
        table=None,
    ) -> "BitmapIndex":
        """Bin the table's columns and build one bitmap per bin.

        ``columns`` may supply the column arrays **in table row order**
        (e.g. a merge that just wrote them); otherwise they are read
        back through the buffer pool.  ``table`` overrides the catalog
        lookup for builds over a generation not yet swapped in (merges).
        Registers as ``<name>.bitmap`` unless ``register`` is false.
        """
        if num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if table is None:
            table = database.table(name)
        if columns is None:
            reader = lambda: table.read_columns(list(dims))  # noqa: E731
            columns = (
                call_with_retries(reader, retry) if retry is not None else reader()
            )
        num_rows = table.num_rows
        edges: dict[str, np.ndarray] = {}
        bitmaps: dict[str, list[CompressedBitmap]] = {}
        bin_counts: dict[str, np.ndarray] = {}
        quantiles = np.linspace(0.0, 1.0, num_bins + 1)
        for col in dims:
            values = np.asarray(columns[col], dtype=np.float64)
            if len(values) != num_rows:
                raise ValueError(
                    f"column {col!r} has {len(values)} rows, table has {num_rows}"
                )
            col_edges = (
                np.quantile(values, quantiles)
                if num_rows
                else np.zeros(num_bins + 1)
            )
            # Equal quantiles (heavy ties) leave some bins empty; that is
            # fine -- their bitmaps are zero words and cost nothing.
            assignments = np.clip(
                np.searchsorted(col_edges, values, side="right") - 1,
                0,
                num_bins - 1,
            )
            order = np.argsort(assignments, kind="stable")
            sorted_bins = assignments[order]
            boundaries = np.searchsorted(sorted_bins, np.arange(num_bins + 1))
            col_bitmaps = [
                CompressedBitmap.from_indices(
                    order[boundaries[b]: boundaries[b + 1]], num_rows
                )
                for b in range(num_bins)
            ]
            edges[col] = col_edges
            bitmaps[col] = col_bitmaps
            bin_counts[col] = np.diff(boundaries).astype(np.int64)
        index = BitmapIndex(database, table, dims, edges, bitmaps, bin_counts)
        if register:
            database.register_index(f"{name}.bitmap", index)
        return index

    # -- identity ------------------------------------------------------------

    @property
    def table(self):
        """The indexed (main-tier) table."""
        return self._table

    @property
    def table_name(self) -> str:
        """Logical table name (catalog bookkeeping, drop propagation)."""
        return self._table.name

    @property
    def dims(self) -> list[str]:
        """Indexed column names, in axis order."""
        return list(self._dims)

    @property
    def num_bins(self) -> int:
        """Bins per indexed column."""
        return len(self._bin_counts[self._dims[0]]) if self._dims else 0

    def bin_edges(self, col: str) -> np.ndarray:
        """The ``num_bins + 1`` equi-depth edges of one column."""
        return self._edges[col]

    # -- bin selection -------------------------------------------------------

    def _assign_bin(self, col: str, value: float) -> int:
        edges = self._edges[col]
        return int(
            np.clip(
                np.searchsorted(edges, value, side="right") - 1,
                0,
                len(edges) - 2,
            )
        )

    def _range_bins(self, col: str, low: float, high: float) -> tuple[int, int]:
        """Inclusive bin range overlapping ``[low, high]``; (1, 0) = empty."""
        edges = self._edges[col]
        if high < edges[0] or low > edges[-1]:
            return 1, 0
        first = self._assign_bin(col, low) if np.isfinite(low) else 0
        last = self._assign_bin(col, high) if np.isfinite(high) else self.num_bins - 1
        return first, last

    def _membership_bins(self, col: str, values: np.ndarray) -> np.ndarray:
        """Distinct bins containing any of the IN-list values."""
        edges = self._edges[col]
        values = np.asarray(values, dtype=np.float64)
        inside = values[(values >= edges[0]) & (values <= edges[-1])]
        if not len(inside):
            return np.empty(0, dtype=np.int64)
        return np.unique(
            np.clip(
                np.searchsorted(edges, inside, side="right") - 1,
                0,
                self.num_bins - 1,
            )
        )

    # -- candidates ----------------------------------------------------------

    def candidate_bitmap(
        self,
        polyhedron: Polyhedron | None,
        memberships: dict[str, np.ndarray] | None = None,
    ) -> CompressedBitmap | None:
        """AND of per-axis bin unions: the candidate row superset.

        Returns ``None`` when nothing constrains the index (no
        axis-aligned halfspace on an indexed column, no membership on
        one) -- the caller should treat that as "every row", typically
        by falling back to a scan-shaped plan.
        """
        num_rows = self._table.num_rows
        result: CompressedBitmap | None = None
        if polyhedron is not None:
            lows, highs = axis_bounds(polyhedron, len(self._dims))
            for axis, col in enumerate(self._dims):
                low, high = lows[axis], highs[axis]
                if not (np.isfinite(low) or np.isfinite(high)):
                    continue
                first, last = self._range_bins(col, low, high)
                if first > last:
                    return CompressedBitmap.empty(num_rows)
                axis_bitmap = CompressedBitmap.union(
                    self._bitmaps[col][first: last + 1], num_rows
                )
                result = axis_bitmap if result is None else result & axis_bitmap
                if not result.any():
                    return result
        if memberships:
            for col, values in memberships.items():
                if col not in self._bitmaps:
                    continue  # unindexed column: residual filter handles it
                bins = self._membership_bins(col, values)
                if not len(bins):
                    return CompressedBitmap.empty(num_rows)
                col_bitmap = CompressedBitmap.union(
                    [self._bitmaps[col][b] for b in bins], num_rows
                )
                result = col_bitmap if result is None else result & col_bitmap
                if not result.any():
                    return result
        return result

    def candidate_rows(
        self,
        polyhedron: Polyhedron | None,
        memberships: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """Sorted main-tier row positions of the candidate superset."""
        bitmap = self.candidate_bitmap(polyhedron, memberships)
        return None if bitmap is None else bitmap.to_indices()

    def estimate_fraction(
        self,
        polyhedron: Polyhedron | None,
        memberships: dict[str, np.ndarray] | None = None,
    ) -> float | None:
        """Candidate-rows fraction from bin counts alone (no bitmap ops).

        The planner's cost input: per-axis selected-bin mass, multiplied
        across constrained axes under the independence assumption.
        Returns ``None`` when nothing constrains the index.
        """
        num_rows = max(1, self._table.num_rows)
        fraction: float | None = None
        if polyhedron is not None:
            lows, highs = axis_bounds(polyhedron, len(self._dims))
            for axis, col in enumerate(self._dims):
                low, high = lows[axis], highs[axis]
                if not (np.isfinite(low) or np.isfinite(high)):
                    continue
                first, last = self._range_bins(col, low, high)
                mass = (
                    float(self._bin_counts[col][first: last + 1].sum()) / num_rows
                    if first <= last
                    else 0.0
                )
                fraction = mass if fraction is None else fraction * mass
        if memberships:
            for col, values in memberships.items():
                if col not in self._bin_counts:
                    continue
                bins = self._membership_bins(col, values)
                mass = float(self._bin_counts[col][bins].sum()) / num_rows
                fraction = mass if fraction is None else fraction * mass
        return fraction

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form, keyed by the physical table namespace."""
        return {
            "table": self._table.physical_name,
            "name": self._table.name,
            "dims": list(self._dims),
            "num_bins": self.num_bins,
            "columns": [
                {
                    "dim": col,
                    "edges": self._edges[col].tolist(),
                    "counts": self._bin_counts[col].tolist(),
                    "bitmaps": [b.to_dict() for b in self._bitmaps[col]],
                }
                for col in self._dims
            ],
        }

    @classmethod
    def from_dict(cls, database, payload: dict) -> "BitmapIndex":
        """Rebuild from :meth:`to_dict` output against a reopened catalog.

        Payloads written before every index covered exactly its query
        axes may carry ``table_dims``; one equal to ``dims`` is the same
        index, any other is refused rather than read in a new axis space.
        """
        legacy_axes = payload.get("table_dims")
        if legacy_axes is not None and list(legacy_axes) != list(payload["dims"]):
            raise ValueError(
                f"bitmap index {payload['name']}.bitmap covers {payload['dims']} "
                f"of query axes {legacy_axes}; only indexes over exactly "
                f"their query axes can be reopened -- rebuild it"
            )
        table = database.table(payload["name"])
        edges = {}
        bitmaps = {}
        bin_counts = {}
        for entry in payload["columns"]:
            col = entry["dim"]
            edges[col] = np.asarray(entry["edges"], dtype=np.float64)
            bin_counts[col] = np.asarray(entry["counts"], dtype=np.int64)
            bitmaps[col] = [CompressedBitmap.from_dict(b) for b in entry["bitmaps"]]
        return cls(database, table, payload["dims"], edges, bitmaps, bin_counts)
