"""The sampled Voronoi tessellation index of §3.4.

Construction, mirroring the paper step by step:

1. Take an ``Nseed`` (paper: 10K) random sample of the data as seeds.
2. Compute the seeds' Delaunay triangulation with QHull
   (:class:`repro.tessellation.DelaunayGraph` wraps ``scipy.spatial``,
   which wraps the very library the paper used).
3. Number the cells along a space-filling curve so nearby cells get
   nearby ids (Morton by default, Hilbert optionally).
4. Tag each data point with the id of its enclosing Voronoi cell and
   build a clustered index over the tags -- here, cluster the engine
   table on the tag, making per-cell retrieval a contiguous range scan.
5. Point location uses the directed walk on the Delaunay graph
   (O(sqrt(Nseed)) expected hops).  Bulk assignment at build time uses a
   kd-tree over the seeds, which returns the identical nearest seed; the
   walk remains the query-time procedure and is what E6 measures.

Polyhedron queries classify each cell INSIDE / OUTSIDE / PARTIAL and
"return or reject all points with that index" for the first two, running
the residual filter only on partial cells.  Exact polytope-polyhedron
intersection in 5-D is the "computationally more challenging task" the
paper notes; we use the sound conservative test the geometry module
provides: each cell is enclosed in the ball around its seed whose radius
is the distance to the farthest point assigned to the cell, so ball
classification can only err toward PARTIAL -- never toward a wrong
INSIDE/OUTSIDE -- and correctness is preserved.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.spatial import cKDTree

from repro.core.index_base import (
    SpatialIndex,
    refuse_pending_inserts,
    stack_coordinates,
)
from repro.core.knn import KnnResult, NeighborList
from repro.db.catalog import Database
from repro.db.fetch import fetch_ranges, query_members, solo
from repro.db.scan import range_scan
from repro.db.stats import QueryStats
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.geometry.boxes import BoxRelation
from repro.geometry.distance import squared_distances
from repro.geometry.halfspace import Polyhedron
from repro.geometry.sfc import hilbert_indices, morton_indices, quantize_points
from repro.tessellation.delaunay import DelaunayGraph

__all__ = ["VoronoiIndex"]


class VoronoiIndex(SpatialIndex):
    """Sampled Voronoi tessellation index over a clustered table."""

    def __init__(
        self,
        database: Database,
        table: Table,
        dims: list[str],
        graph: DelaunayGraph,
        seed_order: np.ndarray,
        cell_ranges: np.ndarray,
        cell_radii: np.ndarray,
    ):
        self._db = database
        self._table = table
        self._dims = list(dims)
        self._graph = graph
        # seed_order[cell_id] = seed index in graph; inverse maps seeds to cells.
        self._seed_order = seed_order
        self._cell_of_seed = np.empty_like(seed_order)
        self._cell_of_seed[seed_order] = np.arange(len(seed_order))
        # cell_ranges[cell_id] = (start_row, end_row) in the clustered table.
        self._cell_ranges = cell_ranges
        self._cell_radii = cell_radii

    # -- build ----------------------------------------------------------------

    @staticmethod
    def build(
        database: Database,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        num_seeds: int = 1024,
        curve: str = "morton",
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        seed: int = 0,
        seed_strategy: str = "random",
    ) -> "VoronoiIndex":
        """Sample seeds, tessellate, tag, and cluster.

        Parameters
        ----------
        num_seeds:
            Size of the representative sample (the paper's Nseed = 10K
            at N = 270M; scale proportionally).
        curve:
            ``"morton"`` or ``"hilbert"`` cell numbering.
        seed_strategy:
            ``"random"`` draws seeds uniformly from the data (the
            paper's choice); ``"stratified"`` refines them with a few
            k-means iterations -- the improvement the paper sketches:
            "we have chosen the seeds randomly, but this technique could
            be improved to follow better the underlying distribution,
            hence keep the cells balanced."
        """
        points = stack_coordinates(data, list(dims))
        num_rows, dim = points.shape
        if num_seeds < dim + 2:
            raise ValueError(f"num_seeds must be >= {dim + 2}")
        if num_seeds > num_rows:
            raise ValueError("num_seeds cannot exceed the number of rows")

        rng = np.random.default_rng(seed)
        chosen = rng.choice(num_rows, size=num_seeds, replace=False)
        seeds = points[chosen]
        if seed_strategy == "stratified":
            seeds = _stratify_seeds(points, seeds, rng)
        elif seed_strategy != "random":
            raise ValueError("seed_strategy must be 'random' or 'stratified'")
        graph = DelaunayGraph(seeds)

        # Space-filling-curve numbering of the cells.
        lattice = quantize_points(seeds, bits=10)
        if curve == "morton":
            codes = morton_indices(lattice, bits=10)
        elif curve == "hilbert":
            codes = hilbert_indices(lattice, bits=10)
        else:
            raise ValueError("curve must be 'morton' or 'hilbert'")
        seed_order = np.argsort(codes, kind="stable").astype(np.int64)
        cell_of_seed = np.empty(num_seeds, dtype=np.int64)
        cell_of_seed[seed_order] = np.arange(num_seeds)

        # Bulk nearest-seed assignment (identical to the directed walk's
        # answer; the walk is exercised at query time and in E6).
        kd = cKDTree(seeds)
        _, nearest_seed = kd.query(points, k=1)
        cell_ids = cell_of_seed[nearest_seed]

        table_data = dict(data)
        table_data["voronoi_cell"] = cell_ids
        table = database.create_table(
            name,
            table_data,
            rows_per_page=rows_per_page,
            clustered_by=("voronoi_cell",),
        )

        cell_ranges = _cell_ranges_from_table(table, num_seeds)
        radii = _data_radii(points, seeds, nearest_seed, num_seeds)
        cell_radii = radii[seed_order]  # reindex seed->cell order

        index = VoronoiIndex(
            database, table, dims, graph, seed_order, cell_ranges, cell_radii
        )
        database.register_index(f"{name}.voronoi", index)
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
    def graph(self) -> DelaunayGraph:
        """The seeds' Delaunay graph."""
        return self._graph

    @property
    def num_cells(self) -> int:
        """Number of Voronoi cells (= seeds)."""
        return self._graph.num_seeds

    def cell_seed_point(self, cell: int) -> np.ndarray:
        """Seed coordinates of a cell id."""
        return self._graph.seeds[self._seed_order[cell]]

    def cell_radius(self, cell: int) -> float:
        """Enclosing-ball radius of a cell (farthest assigned point)."""
        return float(self._cell_radii[cell])

    def cell_point_count(self, cell: int) -> int:
        """Number of data points tagged with a cell id."""
        start, end = self._cell_ranges[cell]
        return int(end - start)

    def cell_point_counts(self) -> np.ndarray:
        """Data-point counts of all cells (density numerators)."""
        return (self._cell_ranges[:, 1] - self._cell_ranges[:, 0]).astype(np.int64)

    # -- point location -------------------------------------------------------------

    def locate(self, point: np.ndarray, start: int | None = None) -> tuple[int, int]:
        """Cell id containing ``point`` via the directed walk; returns
        ``(cell_id, hops)``."""
        start_seed = None if start is None else int(self._seed_order[start])
        walk = self._graph.directed_walk(point, start=start_seed)
        return int(self._cell_of_seed[walk.seed]), walk.hops

    def cell_rows(self, cell: int) -> tuple[dict[str, np.ndarray], QueryStats]:
        """All rows tagged with a cell id (clustered range scan)."""
        refuse_pending_inserts(self._table, "Voronoi")
        start, end = self._cell_ranges[cell]
        return range_scan(self._table, int(start), int(end))

    # -- queries ----------------------------------------------------------------------

    def query_polyhedron(
        self, polyhedron: Polyhedron
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """Cell-classified polyhedron query (see module docstring)."""
        (member,) = query_members([polyhedron], self._dims)
        refuse_pending_inserts(self._table, "Voronoi")
        stats = member.stats
        ranges = []
        for cell in range(self.num_cells):
            start, end = self._cell_ranges[cell]
            if start == end:
                continue
            center = self.cell_seed_point(cell)
            relation = polyhedron.classify_ball(center, self.cell_radius(cell))
            if relation is BoxRelation.OUTSIDE:
                stats.cells_outside += 1
                continue
            if relation is BoxRelation.INSIDE:
                stats.cells_inside += 1
            else:
                stats.cells_partial += 1
            ranges.append((0, int(start), int(end), relation is BoxRelation.PARTIAL))
        return solo(fetch_ranges(self._table, [member], ranges))

    # -- nearest neighbors ---------------------------------------------------------------

    def knn(self, point: np.ndarray, k: int) -> KnnResult:
        """k-NN by growing rings of Voronoi cells around the query.

        The Voronoi tessellation "is an explicit solution of the nearest
        neighbor problem": locate the cell of the query, then expand over
        Delaunay neighbors, pruning cells whose enclosing ball lies
        entirely beyond the current k-th distance.  A final sweep over
        the (small) seed set guarantees exactness.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        point = np.asarray(point, dtype=np.float64)
        stats = QueryStats()
        result = NeighborList(k)
        start_cell, hops = self.locate(point)
        stats.extra["walk_hops"] = hops

        def lower_bound(cell: int) -> float:
            seed_dist = float(np.linalg.norm(self.cell_seed_point(cell) - point))
            return max(0.0, seed_dist - self.cell_radius(cell))

        examined: set[int] = set()
        heap: list[tuple[float, int]] = [(lower_bound(start_cell), start_cell)]
        queued = {start_cell}
        while heap:
            bound, cell = heapq.heappop(heap)
            queued.discard(cell)
            if cell in examined:
                continue
            if bound >= result.worst:
                break
            examined.add(cell)
            self._scan_cell_into(cell, point, result, stats)
            seed_idx = int(self._seed_order[cell])
            for neighbor_seed in self._graph.neighbors(seed_idx):
                neighbor = int(self._cell_of_seed[neighbor_seed])
                if neighbor in examined or neighbor in queued:
                    continue
                nb = lower_bound(neighbor)
                if nb < result.worst:
                    heapq.heappush(heap, (nb, neighbor))
                    queued.add(neighbor)

        # Exactness sweep over all cells (Nseed is small by design).
        m = result.worst
        for cell in range(self.num_cells):
            if cell in examined:
                continue
            if lower_bound(cell) < m and self.cell_point_count(cell) > 0:
                self._scan_cell_into(cell, point, result, stats)
                m = result.worst
        stats.extra["cells_examined"] = len(examined)
        row_ids, distances = result.finish()
        stats.rows_returned = len(row_ids)
        return KnnResult(row_ids=row_ids, distances=distances, stats=stats)

    def knn_approximate(self, point: np.ndarray, k: int, rings: int = 1) -> KnnResult:
        """Approximate k-NN: examine only the containing cell's ring(s).

        The "approximate Voronoi diagram" idea the paper cites
        (Berchtold et al. [6]): the Voronoi cell of the query's nearest
        seed plus ``rings`` levels of Delaunay neighbors almost always
        contains the true neighbors, so skipping the exactness machinery
        trades a small recall loss for a bounded, locality-friendly read
        set.  The ablation bench measures the actual recall.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if rings < 0:
            raise ValueError("rings must be >= 0")
        point = np.asarray(point, dtype=np.float64)
        stats = QueryStats()
        result = NeighborList(k)
        start_cell, hops = self.locate(point)
        stats.extra["walk_hops"] = hops
        frontier = {start_cell}
        visited = set(frontier)
        for _ in range(rings):
            next_frontier = set()
            for cell in frontier:
                seed_idx = int(self._seed_order[cell])
                for neighbor_seed in self._graph.neighbors(seed_idx):
                    neighbor = int(self._cell_of_seed[neighbor_seed])
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
        for cell in sorted(visited):
            if self.cell_point_count(cell) > 0:
                self._scan_cell_into(cell, point, result, stats)
        stats.extra["cells_examined"] = len(visited)
        row_ids, distances = result.finish()
        stats.rows_returned = len(row_ids)
        return KnnResult(row_ids=row_ids, distances=distances, stats=stats)

    def _scan_cell_into(
        self,
        cell: int,
        point: np.ndarray,
        result: NeighborList,
        stats: QueryStats,
    ) -> None:
        rows, cell_stats = self.cell_rows(cell)
        stats.merge(cell_stats)
        if len(rows["_row_id"]) == 0:
            return
        pts = self.points_of(rows)
        dist2 = squared_distances(pts, point)
        result.offer(np.sqrt(dist2), rows["_row_id"])


def _cell_ranges_from_table(table: Table, num_cells: int) -> np.ndarray:
    tags = table.read_column("voronoi_cell")
    ranges = np.zeros((num_cells, 2), dtype=np.int64)
    if len(tags) == 0:
        return ranges
    change = np.flatnonzero(np.diff(tags) != 0) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [len(tags)]])
    for start, end in zip(starts, ends):
        ranges[int(tags[start])] = (start, end)
    return ranges


def _data_radii(
    points: np.ndarray, seeds: np.ndarray, nearest_seed: np.ndarray, num_seeds: int
) -> np.ndarray:
    """Farthest assigned-point distance per seed."""
    diffs = points - seeds[nearest_seed]
    dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    radii = np.zeros(num_seeds)
    np.maximum.at(radii, nearest_seed, dist)
    return radii


def _stratify_seeds(
    points: np.ndarray,
    seeds: np.ndarray,
    rng: np.random.Generator,
    iterations: int = 6,
    sample_cap: int = 50_000,
) -> np.ndarray:
    """Refine random seeds with k-means iterations on a data subsample.

    Moves seeds toward the data distribution so cell populations balance
    (dense regions get more, smaller cells).  Empty cells are re-seeded
    from random data points so the seed count is preserved.
    """
    if len(points) > sample_cap:
        subsample = points[rng.choice(len(points), sample_cap, replace=False)]
    else:
        subsample = points
    seeds = seeds.copy()
    for _ in range(iterations):
        _, assign = cKDTree(seeds).query(subsample)
        for idx in range(len(seeds)):
            members = subsample[assign == idx]
            if len(members):
                seeds[idx] = members.mean(axis=0)
            else:
                seeds[idx] = subsample[rng.integers(len(subsample))]
    return seeds
