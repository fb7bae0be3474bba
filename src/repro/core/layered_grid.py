"""The layered uniform grid index of §3.1.

The visualization client asks the server for "*n* points from this query
box that follow the underlying distribution", and wants them without a
table scan.  The paper's construction:

* Add a ``RandomID`` column: a random permutation of 1..N.
* Layer 1 holds the first ``base`` (=1024) points by RandomID, layer 2 the
  next ``base * 2^d`` points, and so on -- layer *l* holds
  ``base * (2^d)^(l-1)`` points, so each layer is an unbiased random
  sample of the whole table.
* Layer *l* gets a uniform grid of resolution ``2^l`` per axis, hence
  ``(2^l)^d`` cells: the expected points per cell, ``base / 2^d``, is the
  same on every layer (the paper's 3-D numbers: 1024 points / 8 cells =
  8·1024 points / 64 cells = 128).
* Each point stores its cell id in ``ContainedBy``; the table is clustered
  on ``(Layer, ContainedBy)``.

A query walks layers coarse to fine, fetching only the clustered row
ranges of cells that intersect the query box, until ~n points are
accumulated.  Because every layer is a random sample, the running union is
one too -- the sample follows the underlying distribution by construction,
and "practically only points which are actually returned are read from
disk".

:class:`TableSampleBaseline` reproduces the approach the paper tried
first and rejected: SQL Server's ``TABLESAMPLE`` (page sampling at a
tunable percentage) followed by ``TOP(n)``, with its under/over-sampling
pathology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.index_base import refuse_pending_inserts, stack_coordinates
from repro.db.catalog import Database
from repro.db.fetch import fetch_ranges, query_members
from repro.db.stats import QueryStats
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.geometry.boxes import Box
from repro.geometry.halfspace import Polyhedron

__all__ = ["LayeredGridIndex", "TableSampleBaseline", "layer_sizes"]


def layer_sizes(num_rows: int, dim: int, base: int) -> list[int]:
    """Points per layer: ``base * (2^d)^(l-1)``, last layer truncated."""
    if num_rows < 1:
        raise ValueError("num_rows must be >= 1")
    sizes: list[int] = []
    remaining = num_rows
    size = base
    while remaining > 0:
        take = min(size, remaining)
        sizes.append(take)
        remaining -= take
        size *= 2**dim
    return sizes


@dataclass
class SampleResult:
    """Output of a layered-grid sample query."""

    points: np.ndarray
    row_ids: np.ndarray
    layers_used: int
    stats: QueryStats


class LayeredGridIndex:
    """Layered uniform grid over ``dims`` of a data table."""

    def __init__(
        self,
        database: Database,
        table: Table,
        dims: list[str],
        bounds: Box,
        sizes: list[int],
        cell_ranges: list[dict[int, tuple[int, int]]],
    ):
        self._db = database
        self._table = table
        self._dims = list(dims)
        self._bounds = bounds
        self._sizes = sizes
        self._cell_ranges = cell_ranges

    # -- build ----------------------------------------------------------------

    @staticmethod
    def build(
        database: Database,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        base: int = 1024,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        seed: int = 0,
    ) -> "LayeredGridIndex":
        """Assign RandomID / Layer / ContainedBy and cluster the table.

        Parameters
        ----------
        base:
            Points on the first layer (the paper's 1024).
        seed:
            Seed of the RandomID permutation (determinism for tests).
        """
        points = stack_coordinates(data, list(dims))
        num_rows, dim = points.shape
        bounds = Box.from_points(points)

        rng = np.random.default_rng(seed)
        random_id = rng.permutation(num_rows).astype(np.int64)

        sizes = layer_sizes(num_rows, dim, base)
        # Layer of each row: breakpoints over RandomID.
        breaks = np.cumsum([0] + sizes)
        layer = (
            np.searchsorted(breaks, random_id, side="right").astype(np.int64)
        )  # 1-based layer index

        contained_by = np.empty(num_rows, dtype=np.int64)
        for l_index in range(1, len(sizes) + 1):
            mask = layer == l_index
            resolution = 2**l_index
            coords = _grid_coords(points[mask], bounds, resolution)
            contained_by[mask] = _cell_ids(coords, resolution)

        table_data = dict(data)
        table_data["RandomID"] = random_id
        table_data["Layer"] = layer
        table_data["ContainedBy"] = contained_by
        table = database.create_table(
            name,
            table_data,
            rows_per_page=rows_per_page,
            clustered_by=("Layer", "ContainedBy"),
        )

        cell_ranges = _build_cell_ranges(table, len(sizes))
        index = LayeredGridIndex(database, table, dims, bounds, sizes, cell_ranges)
        database.register_index(f"{name}.layered_grid", index)
        return index

    # -- properties ---------------------------------------------------------------

    @property
    def table(self) -> Table:
        """The clustered data table."""
        return self._table

    @property
    def table_name(self) -> str:
        """Name of the backing table (catalog bookkeeping)."""
        return self._table.name

    @property
    def dims(self) -> list[str]:
        """Ordered coordinate column names."""
        return list(self._dims)

    @property
    def bounds(self) -> Box:
        """Global bounding box of the indexed points."""
        return self._bounds

    @property
    def num_layers(self) -> int:
        """Number of layers."""
        return len(self._sizes)

    def layer_size(self, layer: int) -> int:
        """Points assigned to a 1-based layer index."""
        return self._sizes[layer - 1]

    # -- queries -----------------------------------------------------------------

    def sample_box(self, box: Box, n: int) -> SampleResult:
        """Return ~n distribution-following points inside ``box``.

        Walks layers coarse to fine; per the paper, once the running count
        reaches ``n`` the current layer is finished and the query halts
        ("extra points from the last layer are returned, too" -- the
        client is insensitive to a small surplus).
        """
        batches = []
        total = 0
        for batch in self._layer_batches(box):
            batches.append(batch)
            total += len(batch[1])
            if total >= n:
                break
        return _sample_result(batches)

    def query_box(self, box: Box) -> SampleResult:
        """*All* points inside ``box`` (exact, not sampled).

        Every point lives on exactly one layer, so scanning the
        intersecting cells of every layer yields the exact result --
        the layered grid doubles as a plain multidimensional grid index.
        Page cost is bounded by the cells overlapping the box across all
        layers, which for selective boxes is far below a full scan.
        """
        return _sample_result(self._fetch_layers(box, range(1, self.num_layers + 1)))

    def sample_box_stream(
        self, box: Box, n: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Streaming variant: yield ``(points, row_ids)`` per layer.

        "An interesting feature possibility is to stream the points back
        to the client, i.e. when points from the first layer are
        available, start sending them back as we fetch more points from
        layer 2" (§3.1).
        """
        total = 0
        for batch_points, batch_rows, _ in self._layer_batches(box):
            if len(batch_rows):
                yield batch_points, batch_rows
                total += len(batch_rows)
            if total >= n:
                return

    def _layer_batches(
        self, box: Box
    ) -> Iterator[tuple[np.ndarray, np.ndarray, QueryStats]]:
        """Per-layer in-box points, fetched one layer at a time."""
        for l_index in range(1, self.num_layers + 1):
            yield from self._fetch_layers(box, [l_index])

    def _fetch_layers(
        self, box: Box, layers: Sequence[int]
    ) -> list[tuple[np.ndarray, np.ndarray, QueryStats]]:
        """In-box ``(points, row_ids, stats)`` of each of ``layers``.

        One range fetch over the intersecting cells of every layer named,
        one member per layer, so a page two layers share is read once.
        """
        refuse_pending_inserts(self._table, "layered grid")
        query = box.intersection(self._bounds)
        members = query_members([Polyhedron.from_box(box)] * len(layers), self._dims)
        ranges = [
            (m, *self._cell_ranges[l_index - 1][cell], True)
            for m, l_index in enumerate(layers)
            if query is not None
            for cell in self._intersecting_cells(query, l_index, 2**l_index)
        ]
        outcomes, _ = fetch_ranges(self._table, members, ranges, columns=self._dims)
        return [
            (np.column_stack([rows[d] for d in self._dims]), rows["_row_id"], stats)
            for rows, stats, _ in outcomes
        ]

    def _intersecting_cells(
        self, query: Box, l_index: int, resolution: int
    ) -> list[int]:
        """Occupied cell ids of a layer whose grid cell overlaps ``query``.

        Two strategies: enumerate the lattice sub-box when it is small, or
        filter the layer's occupied cells when the lattice blow-up at deep
        layers would dominate.
        """
        lo_coords = _grid_coords(query.lo[np.newaxis, :], self._bounds, resolution)[0]
        hi_coords = _grid_coords(query.hi[np.newaxis, :], self._bounds, resolution)[0]
        occupied = self._cell_ranges[l_index - 1]
        lattice_count = int(np.prod(hi_coords - lo_coords + 1))
        if lattice_count <= len(occupied):
            cells = []
            for cell in _enumerate_lattice(lo_coords, hi_coords, resolution):
                if cell in occupied:
                    cells.append(cell)
            return cells
        cells = []
        for cell in occupied:
            coords = _decode_cell(cell, len(lo_coords), resolution)
            if np.all(coords >= lo_coords) and np.all(coords <= hi_coords):
                cells.append(cell)
        return cells


def _sample_result(batches: list[tuple[np.ndarray, np.ndarray, QueryStats]]) -> SampleResult:
    """Per-layer ``(points, row_ids, stats)`` batches as one result."""
    stats = QueryStats()
    for _, _, batch_stats in batches:
        stats.merge(batch_stats)
    row_ids = np.concatenate([row_ids for _, row_ids, _ in batches])
    stats.rows_returned = len(row_ids)
    points = np.vstack([points for points, _, _ in batches])
    return SampleResult(points=points, row_ids=row_ids, layers_used=len(batches), stats=stats)


def _grid_coords(points: np.ndarray, bounds: Box, resolution: int) -> np.ndarray:
    """Integer grid coordinates of points at a given per-axis resolution."""
    span = bounds.widths.copy()
    span[span == 0.0] = 1.0
    scaled = (points - bounds.lo) / span * resolution
    return np.clip(np.floor(scaled).astype(np.int64), 0, resolution - 1)


def _cell_ids(coords: np.ndarray, resolution: int) -> np.ndarray:
    """Row-major cell id of integer grid coordinates."""
    dim = coords.shape[1]
    ids = np.zeros(len(coords), dtype=np.int64)
    for axis in range(dim):
        ids = ids * resolution + coords[:, axis]
    return ids


def _decode_cell(cell: int, dim: int, resolution: int) -> np.ndarray:
    coords = np.empty(dim, dtype=np.int64)
    for axis in range(dim - 1, -1, -1):
        coords[axis] = cell % resolution
        cell //= resolution
    return coords


def _enumerate_lattice(
    lo: np.ndarray, hi: np.ndarray, resolution: int
) -> Iterator[int]:
    """Row-major cell ids of the integer box ``[lo, hi]`` (inclusive)."""
    dim = len(lo)
    current = lo.copy()
    while True:
        cell = 0
        for axis in range(dim):
            cell = cell * resolution + int(current[axis])
        yield cell
        axis = dim - 1
        while axis >= 0:
            current[axis] += 1
            if current[axis] <= hi[axis]:
                break
            current[axis] = lo[axis]
            axis -= 1
        if axis < 0:
            return


def _build_cell_ranges(
    table: Table, num_layers: int
) -> list[dict[int, tuple[int, int]]]:
    """Row ranges per (layer, cell) in the clustered table.

    This is the clustered B-tree's job in SQL Server; here it is a small
    in-memory dictionary built with one pass over the clustered columns.
    """
    columns = table.read_columns(["Layer", "ContainedBy"])
    layer = columns["Layer"]
    cell = columns["ContainedBy"]
    ranges: list[dict[int, tuple[int, int]]] = [{} for _ in range(num_layers)]
    if len(layer) == 0:
        return ranges
    change = np.flatnonzero((np.diff(layer) != 0) | (np.diff(cell) != 0)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(layer)]])
    for start, end in zip(starts, ends):
        ranges[int(layer[start]) - 1][int(cell[start])] = (int(start), int(end))
    return ranges


class TableSampleBaseline:
    """The rejected first approach: ``TABLESAMPLE(p PERCENT)`` + ``TOP(n)``.

    SQL Server's TABLESAMPLE picks a random subset of *pages*; the rest of
    the query runs on the sampled pages only.  The pathology the paper
    describes: ``p`` must be tuned per query -- too low undersamples (the
    query returns fewer than n points), too high reads a large fraction of
    the table (losing the speed advantage), and ``TOP(n)`` on an
    un-shuffled table returns a spatially biased prefix.  Here rows are
    paged in insertion order; pass data shuffled or not to show both
    failure modes.
    """

    def __init__(self, database: Database, table: Table, dims: list[str], seed: int = 0):
        self._db = database
        self._table = table
        self._dims = list(dims)
        self._rng = np.random.default_rng(seed)

    @staticmethod
    def build(
        database: Database,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        seed: int = 0,
    ) -> "TableSampleBaseline":
        """Materialize the unclustered table the baseline scans."""
        table = database.create_table(name, dict(data), rows_per_page=rows_per_page)
        return TableSampleBaseline(database, table, dims, seed=seed)

    @property
    def table(self) -> Table:
        """The backing table."""
        return self._table

    def sample_box(self, box: Box, n: int, percent: float) -> SampleResult:
        """Sample ``percent`` of pages, filter to ``box``, TOP(n)."""
        if not (0.0 < percent <= 100.0):
            raise ValueError("percent must be in (0, 100]")
        stats = QueryStats()
        num_pages = self._table.num_pages
        take = max(1, int(round(num_pages * percent / 100.0)))
        chosen = self._rng.choice(num_pages, size=take, replace=False)
        pts_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        total = 0
        for page_id in np.sort(chosen):
            page = self._table.read_page(int(page_id))
            stats.record_page(self._table.name, int(page_id))
            stats.rows_examined += page.num_rows
            pts = np.column_stack([page.columns[d] for d in self._dims])
            inside = box.contains_points(pts)
            count = int(np.count_nonzero(inside))
            if count:
                pts_parts.append(pts[inside])
                row_parts.append(page.row_ids()[inside])
                total += count
            if total >= n:  # TOP(n): stop the scan once n rows were produced
                break
        points = np.vstack(pts_parts) if pts_parts else np.empty((0, len(self._dims)))
        rows = np.concatenate(row_parts) if row_parts else np.empty(0, np.int64)
        if len(rows) > n:
            points, rows = points[:n], rows[:n]
        stats.rows_returned = len(rows)
        return SampleResult(points=points, row_ids=rows, layers_used=0, stats=stats)
