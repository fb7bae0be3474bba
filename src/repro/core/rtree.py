"""A bulk-loaded (STR) R-tree: the classic baseline the paper argues with.

The paper's introduction lists "Oc-tree, R-tree, SS-tree, SR-tree,
X-tree, TV-tree, Pyramid-tree and Kd-tree" as the existing
multidimensional index family, and argues (citing Gray et al. [11]) that
the kd-tree's one-cut-per-level shape behaves better in a database
setting.  To make that an experiment rather than an assertion, this
module implements the strongest *static* R-tree variant -- Sort-Tile-
Recursive bulk loading (Leutenegger et al.), the standard choice for
read-only point sets -- over the same engine, with the same clustered
leaf storage and the same polyhedron-query interface, so the comparison
isolates the *tree shape*.

Differences from the kd-tree that the ablation measures:

* fan-out ``f`` per node instead of binary cuts -> shallower trees;
* leaf MBRs tile the *data* but may overlap spatially (STR slabs cut on
  sorted coordinates), so point location is not unique;
* node MBRs are the only pruning geometry (no space-tiling partition
  boxes), which rules out the §3.3 boundary-point k-NN -- best-first is
  the natural search here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

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
from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.distance import squared_distances
from repro.geometry.halfspace import Polyhedron

__all__ = ["RTreeIndex", "str_pack"]


@dataclass
class _Node:
    """One R-tree node: an MBR plus children or a leaf row range."""

    lo: np.ndarray
    hi: np.ndarray
    children: list[int]  # indices into the node array; empty for leaves
    row_start: int
    row_end: int

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def box(self) -> Box:
        return Box(self.lo, self.hi)


def str_pack(points: np.ndarray, leaf_capacity: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Sort-Tile-Recursive packing.

    Returns the permutation that orders points into leaf-contiguous
    runs, plus the ``(start, end)`` row range of every leaf in that
    order.  Recursion: sort the current slab on the current axis, cut it
    into ``ceil((m / cap)^(1/remaining_dims))`` tiles, recurse with the
    next axis.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    permutation = np.arange(n, dtype=np.int64)
    leaves: list[tuple[int, int]] = []

    def recurse(start: int, end: int, axis: int) -> None:
        count = end - start
        if count <= leaf_capacity:
            leaves.append((start, end))
            return
        segment = permutation[start:end]
        order = np.argsort(points[segment, axis], kind="stable")
        permutation[start:end] = segment[order]
        remaining = dim - axis
        if remaining <= 1:
            # Final axis: cut straight into capacity-sized runs.
            for tile_start in range(start, end, leaf_capacity):
                leaves.append((tile_start, min(tile_start + leaf_capacity, end)))
            return
        num_leaves = int(np.ceil(count / leaf_capacity))
        tiles = int(np.ceil(num_leaves ** (1.0 / remaining)))
        tile_size = int(np.ceil(count / tiles))
        for tile_start in range(start, end, tile_size):
            recurse(tile_start, min(tile_start + tile_size, end), axis + 1)

    recurse(0, n, 0)
    return permutation, leaves


class RTreeIndex(SpatialIndex):
    """STR-packed R-tree over a clustered engine table."""

    def __init__(
        self,
        database: Database,
        table: Table,
        dims: list[str],
        nodes: list[_Node],
        root: int,
        height: int,
    ):
        self._db = database
        self._table = table
        self._dims = list(dims)
        self._nodes = nodes
        self._root = root
        self._height = height

    # -- build --------------------------------------------------------------

    @staticmethod
    def build(
        database: Database,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        leaf_capacity: int | None = None,
        fan_out: int = 16,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ) -> "RTreeIndex":
        """STR-pack the points and materialize the clustered table.

        ``leaf_capacity`` defaults to the kd-tree's √N leaf size so the
        two indexes are compared at matched granularity.
        """
        points = stack_coordinates(data, list(dims))
        n = len(points)
        if leaf_capacity is None:
            leaf_capacity = max(1, int(round(np.sqrt(n))))
        if fan_out < 2:
            raise ValueError("fan_out must be >= 2")

        permutation, leaf_ranges = str_pack(points, leaf_capacity)

        # Leaf ids in packing order; rows clustered by leaf id.
        leaf_ids = np.empty(n, dtype=np.int64)
        for leaf_idx, (start, end) in enumerate(leaf_ranges):
            leaf_ids[permutation[start:end]] = leaf_idx
        table_data = dict(data)
        table_data["rt_leaf"] = leaf_ids
        table = database.create_table(
            name, table_data, rows_per_page=rows_per_page, clustered_by=("rt_leaf",)
        )

        # Build node levels bottom-up with MBRs from the actual points.
        nodes: list[_Node] = []
        level: list[int] = []
        for start, end in leaf_ranges:
            rows = permutation[start:end]
            sub = points[rows]
            nodes.append(
                _Node(
                    lo=sub.min(axis=0),
                    hi=sub.max(axis=0),
                    children=[],
                    row_start=start,
                    row_end=end,
                )
            )
            level.append(len(nodes) - 1)
        height = 1
        while len(level) > 1:
            next_level: list[int] = []
            for group_start in range(0, len(level), fan_out):
                group = level[group_start: group_start + fan_out]
                lo = np.min([nodes[i].lo for i in group], axis=0)
                hi = np.max([nodes[i].hi for i in group], axis=0)
                nodes.append(
                    _Node(
                        lo=lo,
                        hi=hi,
                        children=list(group),
                        row_start=nodes[group[0]].row_start,
                        row_end=nodes[group[-1]].row_end,
                    )
                )
                next_level.append(len(nodes) - 1)
            level = next_level
            height += 1

        index = RTreeIndex(database, table, dims, nodes, level[0], height)
        database.register_index(f"{name}.rtree", index)
        return index

    # -- properties -----------------------------------------------------------

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
    def height(self) -> int:
        """Number of node levels (leaves = 1)."""
        return self._height

    @property
    def num_leaves(self) -> int:
        """Leaf node count."""
        return sum(1 for node in self._nodes if node.is_leaf)

    def leaf_statistics(self) -> dict[str, float]:
        """Leaf sizes and MBR shapes (the kd comparison's counterpart)."""
        sizes = [n.row_end - n.row_start for n in self._nodes if n.is_leaf]
        elongations = [
            n.box().elongation
            for n in self._nodes
            if n.is_leaf and np.isfinite(n.box().elongation)
        ]
        return {
            "height": float(self._height),
            "num_leaves": float(len(sizes)),
            "mean_leaf_size": float(np.mean(sizes)),
            "mean_leaf_elongation": float(np.mean(elongations)) if elongations else 1.0,
        }

    # -- queries ------------------------------------------------------------------

    def query_polyhedron(
        self, polyhedron: Polyhedron
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """MBR-pruned polyhedron query (same contract as the kd-tree's)."""
        (member,) = query_members([polyhedron], self._dims)
        refuse_pending_inserts(self._table, "R-tree")
        stats = member.stats
        ranges = []
        stack = [self._root]
        while stack:
            node = self._nodes[stack.pop()]
            if node.row_start == node.row_end:
                continue
            stats.nodes_visited += 1
            relation = polyhedron.classify_box(node.box())
            if relation is BoxRelation.OUTSIDE:
                stats.cells_outside += 1
            elif relation is BoxRelation.INSIDE:
                stats.cells_inside += 1
                ranges.append((0, node.row_start, node.row_end, False))
            elif node.is_leaf:
                stats.cells_partial += 1
                ranges.append((0, node.row_start, node.row_end, True))
            else:
                stack.extend(node.children)
        return solo(fetch_ranges(self._table, [member], ranges))

    def knn(self, point: np.ndarray, k: int) -> KnnResult:
        """Best-first k-NN over the MBR hierarchy."""
        if k < 1:
            raise ValueError("k must be >= 1")
        refuse_pending_inserts(self._table, "R-tree")
        point = np.asarray(point, dtype=np.float64)
        stats = QueryStats()
        result = NeighborList(k)
        heap: list[tuple[float, int]] = [(0.0, self._root)]
        boxes_examined = 0
        while heap:
            bound, node_idx = heapq.heappop(heap)
            if bound >= result.worst:
                break
            node = self._nodes[node_idx]
            stats.nodes_visited += 1
            if node.is_leaf:
                boxes_examined += 1
                rows, piece = range_scan(self._table, node.row_start, node.row_end)
                stats.merge(piece)
                if len(rows["_row_id"]):
                    pts = self.points_of(rows)
                    dist2 = squared_distances(pts, point)
                    result.offer(np.sqrt(dist2), rows["_row_id"])
            else:
                for child_idx in node.children:
                    child = self._nodes[child_idx]
                    child_bound = child.box().min_distance_to_point(point)
                    if child_bound < result.worst:
                        heapq.heappush(heap, (child_bound, child_idx))
        stats.extra["boxes_examined"] = boxes_examined
        row_ids, distances = result.finish()
        stats.rows_returned = len(row_ids)
        return KnnResult(row_ids=row_ids, distances=distances, stats=stats)

