"""The balanced kd-tree index of §3.2.

Reproduced design decisions, in the paper's own terms:

* **Iterative, level-by-level build.**  "The fastest approach is ... to
  build the tree iteratively (not recursively).  We create a cover index
  table which holds the completed levels of the tree, and for the next
  level we join the index table with the original table ... and ORDER BY
  and ROW_NUMBER() to find the median cut plane."  Here each level is one
  vectorized pass: every node segment of the current level is median-split
  with ``argpartition`` (the numpy analog of the windowed ROW_NUMBER).
* **Balanced with the √N rule.**  "kd-tree indexing performs optimally
  when the number of items in each leaf is equal to the number of leafs
  ... the number of leafs (and items in it) is equal to the square root of
  the number of rows.  Thus our tree has 15 levels, 2^14 leafs and in each
  leaf there are approximately 16K items."  ``num_levels`` defaults to
  that rule.
* **Post-order numbering.**  "The nodes are post-order numbered; this
  means that at query time, if an inner node does not need to be recursed
  further because its bounding box is contained in the query polyhedron,
  its child leaf nodes can be selected trivially using BETWEEN."  Rows are
  tagged with their leaf's post-order id and the table is clustered on it,
  so a subtree is a contiguous row range.
* **Polyhedron evaluation** (Figure 4): recursive classification of node
  bounding boxes against the query polyhedron; fully inside -> bulk
  return, outside -> reject, partial leaves -> residual per-point filter.

The tree keeps two box families per node: the *partition* box (the cell of
the recursive space partition -- these tile the root box and drive the
boundary-point k-NN of §3.3) and the *tight* box (the bounding box of the
node's actual points -- these give much better pruning on highly clustered
data and are what the paper visualizes in Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import batch_kd_query
from repro.core.index_base import SpatialIndex, stack_coordinates
from repro.db.catalog import Database
from repro.db.fetch import FetchMember, delta_piece, fetch, range_segments, solo
from repro.db.scan import AUTO_TOMBSTONES, range_scan
from repro.db.stats import QueryStats
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import Polyhedron

__all__ = ["KdTree", "KdTreeIndex", "default_num_levels"]


def _preferred_axis(axis_policy: str) -> int | None:
    """The axis index of a ``prefer:<axis>`` policy, else ``None``."""
    if not axis_policy.startswith("prefer:"):
        return None
    try:
        return int(axis_policy.split(":", 1)[1])
    except ValueError:
        return None


def default_num_levels(num_rows: int) -> int:
    """The paper's √N sizing: leaf count ≈ items per leaf ≈ sqrt(N).

    A tree with L levels has 2**(L-1) leaves, so L = log2(sqrt(N)) + 1,
    rounded to the nearest whole level (at 270M rows this gives the
    paper's 15 levels / 2^14 leaves / ~16K rows per leaf).
    """
    if num_rows < 1:
        return 1
    leaves = max(1.0, np.sqrt(num_rows))
    return max(1, int(round(np.log2(leaves))) + 1)


@dataclass
class _BuildResult:
    permutation: np.ndarray
    split_axis: np.ndarray
    split_value: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray


class KdTree:
    """The in-memory structure: heap-ordered perfect binary tree.

    Node ``h`` (1-based heap index) has children ``2h`` and ``2h + 1``;
    leaves occupy ``[2**(L-1), 2**L)``.  The structure is small -- O(√N)
    nodes under the default sizing -- and is the "cover index table" of
    the paper; the point data itself lives in the clustered engine table.
    """

    def __init__(self, points: np.ndarray, num_levels: int | None = None,
                 axis_policy: str = "widest"):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        preferred = _preferred_axis(axis_policy)
        if axis_policy not in ("widest", "cycle") and preferred is None:
            raise ValueError(
                "axis_policy must be 'widest', 'cycle', or 'prefer:<axis>'"
            )
        self.num_points, self.dim = points.shape
        if preferred is not None and not (0 <= preferred < self.dim):
            raise ValueError(
                f"preferred axis {preferred} out of range for {self.dim} dims"
            )
        self._preferred = preferred
        self.num_levels = (
            default_num_levels(self.num_points) if num_levels is None else num_levels
        )
        if self.num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        if 2 ** (self.num_levels - 1) > self.num_points:
            raise ValueError(
                f"{self.num_levels} levels need >= {2 ** (self.num_levels - 1)} points"
            )
        self.axis_policy = axis_policy
        self.num_leaves = 2 ** (self.num_levels - 1)
        self.num_nodes = 2**self.num_levels - 1  # heap slots 1..num_nodes

        build = self._build(points)
        self.permutation = build.permutation
        self._split_axis = build.split_axis
        self._split_value = build.split_value
        self._seg_start = build.seg_start
        self._seg_end = build.seg_end
        self._partition_lo, self._partition_hi = self._partition_boxes(points)
        self._tight_lo, self._tight_hi = self._tight_boxes(points)
        self._post_order = self._post_order_ids()
        self._subtree_size = self._subtree_sizes()

    # -- build -------------------------------------------------------------

    def _build(self, points: np.ndarray) -> _BuildResult:
        """Level-by-level median partitioning (the iterative SQL build)."""
        n = self.num_points
        perm = np.arange(n, dtype=np.int64)
        total = self.num_nodes + 1
        split_axis = np.full(total, -1, dtype=np.int64)
        split_value = np.full(total, np.nan)
        seg_start = np.zeros(total, dtype=np.int64)
        seg_end = np.zeros(total, dtype=np.int64)
        seg_start[1], seg_end[1] = 0, n

        for level in range(1, self.num_levels):
            first = 2 ** (level - 1)
            for node in range(first, 2 * first):
                start, end = seg_start[node], seg_end[node]
                segment = perm[start:end]
                count = end - start
                axis = self._choose_axis(points, segment, level)
                split_axis[node] = axis
                mid = count // 2
                if count > 1:
                    local = np.argpartition(points[segment, axis], mid)
                    perm[start:end] = segment[local]
                    segment = perm[start:end]
                if count == 0:
                    split_value[node] = np.nan
                elif mid == 0:
                    split_value[node] = points[segment[0], axis]
                else:
                    split_value[node] = float(
                        (points[segment[mid], axis].item()
                         + points[segment[:mid], axis].max())
                        / 2.0
                    )
                left, right = 2 * node, 2 * node + 1
                seg_start[left], seg_end[left] = start, start + mid
                seg_start[right], seg_end[right] = start + mid, end
        return _BuildResult(perm, split_axis, split_value, seg_start, seg_end)

    def _choose_axis(self, points: np.ndarray, segment: np.ndarray, level: int) -> int:
        if self._preferred is not None and len(segment):
            # ``prefer:<axis>`` splits the chosen axis at every level (an
            # axis-major layout: the clustered table ends up sorted by
            # that coordinate), falling back to widest only once a
            # segment is degenerate on it.  Partition boxes stay correct
            # whatever the split axes, so queries on the other axes
            # simply see less pruning -- never wrong answers.
            sub = points[segment]
            if sub[:, self._preferred].max() > sub[:, self._preferred].min():
                return self._preferred
        if self.axis_policy == "cycle" or len(segment) == 0:
            return (level - 1) % self.dim
        sub = points[segment]
        return int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))

    def _partition_boxes(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Space-tiling boxes from the recursive cuts (root = data bbox)."""
        lo = np.empty((self.num_nodes + 1, self.dim))
        hi = np.empty((self.num_nodes + 1, self.dim))
        lo[1] = points.min(axis=0)
        hi[1] = points.max(axis=0)
        for node in range(1, 2 ** (self.num_levels - 1)):
            axis = self._split_axis[node]
            value = self._split_value[node]
            if np.isnan(value):
                value = (lo[node, axis] + hi[node, axis]) / 2.0
            value = float(np.clip(value, lo[node, axis], hi[node, axis]))
            left, right = 2 * node, 2 * node + 1
            lo[left], hi[left] = lo[node].copy(), hi[node].copy()
            lo[right], hi[right] = lo[node].copy(), hi[node].copy()
            hi[left, axis] = value
            lo[right, axis] = value
        return lo, hi

    def _tight_boxes(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Actual data bounding boxes per node, computed bottom-up."""
        lo = np.full((self.num_nodes + 1, self.dim), np.inf)
        hi = np.full((self.num_nodes + 1, self.dim), -np.inf)
        first_leaf = 2 ** (self.num_levels - 1)
        for leaf in range(first_leaf, 2 * first_leaf):
            rows = self.permutation[self._seg_start[leaf]:self._seg_end[leaf]]
            if len(rows):
                sub = points[rows]
                lo[leaf] = sub.min(axis=0)
                hi[leaf] = sub.max(axis=0)
        for node in range(first_leaf - 1, 0, -1):
            lo[node] = np.minimum(lo[2 * node], lo[2 * node + 1])
            hi[node] = np.maximum(hi[2 * node], hi[2 * node + 1])
        return lo, hi

    def _post_order_ids(self) -> np.ndarray:
        """Post-order id per heap node (ids are 1-based like the paper's)."""
        ids = np.zeros(self.num_nodes + 1, dtype=np.int64)
        counter = 0
        stack: list[tuple[int, bool]] = [(1, False)]
        while stack:
            node, expanded = stack.pop()
            if self.is_leaf(node):
                counter += 1
                ids[node] = counter
            elif expanded:
                counter += 1
                ids[node] = counter
            else:
                stack.append((node, True))
                stack.append((2 * node + 1, False))
                stack.append((2 * node, False))
        return ids

    def _subtree_sizes(self) -> np.ndarray:
        sizes = np.ones(self.num_nodes + 1, dtype=np.int64)
        for node in range(2 ** (self.num_levels - 1) - 1, 0, -1):
            sizes[node] = 1 + sizes[2 * node] + sizes[2 * node + 1]
        return sizes

    # -- structure accessors ----------------------------------------------------

    @property
    def first_leaf(self) -> int:
        """Heap index of the leftmost leaf."""
        return 2 ** (self.num_levels - 1)

    def is_leaf(self, node: int) -> bool:
        """Whether a heap node is a leaf."""
        return node >= self.first_leaf

    def node_rows(self, node: int) -> tuple[int, int]:
        """Clustered row range ``[start, end)`` covered by a node's subtree."""
        return int(self._seg_start[node]), int(self._seg_end[node])

    def leaf_size(self, leaf: int) -> int:
        """Number of rows in a leaf."""
        start, end = self.node_rows(leaf)
        return end - start

    def partition_box(self, node: int) -> Box:
        """The space-tiling partition cell of a node."""
        return Box(self._partition_lo[node], self._partition_hi[node])

    def tight_box(self, node: int) -> Box:
        """The bounding box of the node's actual points."""
        if not np.all(np.isfinite(self._tight_lo[node])):
            return self.partition_box(node)
        return Box(self._tight_lo[node], self._tight_hi[node])

    def visit_info(self, node: int, tight: bool = True):
        """One-call node visit: ``(start, end, box)``.

        Returns the node's clustered row range and its pruning box
        (tight when requested and finite, else the partition cell);
        ``box`` is ``None`` for empty nodes, which the traversals skip
        before classifying.  Exists so paged trees
        (:class:`~repro.core.kdpaged.PagedKdTree`) answer a node visit
        with one cache probe; the in-memory implementation simply
        composes the accessors.
        """
        start, end = self.node_rows(node)
        if start == end:
            return start, end, None
        box = self.tight_box(node) if tight else self.partition_box(node)
        return start, end, box

    def export_node_arrays(self) -> dict[str, np.ndarray]:
        """The raw node arrays, for serialization into index pages.

        Keys follow the internal array names; every array is indexed by
        heap slot (slot 0 unused).  Consumed by
        :func:`repro.core.kdpaged.tree_node_pages`.
        """
        return {
            "split_axis": self._split_axis,
            "split_value": self._split_value,
            "seg_start": self._seg_start,
            "seg_end": self._seg_end,
            "post_order": self._post_order,
            "partition_lo": self._partition_lo,
            "partition_hi": self._partition_hi,
            "tight_lo": self._tight_lo,
            "tight_hi": self._tight_hi,
        }

    def post_order_id(self, node: int) -> int:
        """Post-order id of a heap node."""
        return int(self._post_order[node])

    def post_order_range(self, node: int) -> tuple[int, int]:
        """Inclusive BETWEEN bounds covering every descendant of ``node``."""
        node_id = int(self._post_order[node])
        return node_id - int(self._subtree_size[node]) + 1, node_id

    def leaf_post_order_ids(self) -> np.ndarray:
        """Post-order ids of the leaves in left-to-right order."""
        return self._post_order[self.first_leaf: 2 * self.first_leaf]

    def split_plane(self, node: int) -> tuple[int, float]:
        """``(axis, value)`` of an internal node's cut."""
        if self.is_leaf(node):
            raise ValueError(f"node {node} is a leaf")
        return int(self._split_axis[node]), float(self._split_value[node])

    # -- point location ------------------------------------------------------

    def leaf_of_points(self, points: np.ndarray) -> np.ndarray:
        """Heap index of the leaf whose partition cell holds each row of ``points``.

        One array descent, a level per step, for the whole ``(n, d)``
        batch.  Ties on a cut plane go to the left child, matching the
        closed-left convention of the build; points outside the root
        box land in the outermost leaf on their side.
        """
        points = np.asarray(points, dtype=np.float64)
        rows = np.arange(len(points))
        nodes = np.ones(len(points), dtype=np.int64)
        for _ in range(self.num_levels - 1):
            left = points[rows, self._split_axis[nodes]] <= self._split_value[nodes]
            nodes = 2 * nodes + ~left
        return nodes

    def leaf_of_point(self, point: np.ndarray) -> int:
        """Heap index of the (single) leaf whose partition cell holds ``point``."""
        return int(self.leaf_of_points(np.asarray(point)[np.newaxis, :])[0])

    def leaves_containing(self, point: np.ndarray) -> list[int]:
        """All leaves whose *closed* partition cell contains ``point``.

        A point on a cut plane belongs to both sides; the boundary-point
        k-NN (§3.3) needs every such leaf ("the kd-box(es) on the other
        side of b").
        """
        point = np.asarray(point, dtype=np.float64)
        found: list[int] = []
        stack = [1]
        while stack:
            node = stack.pop()
            if self.is_leaf(node):
                found.append(node)
                continue
            axis, value = self.split_plane(node)
            if point[axis] < value:
                stack.append(2 * node)
            elif point[axis] > value:
                stack.append(2 * node + 1)
            else:
                stack.append(2 * node)
                stack.append(2 * node + 1)
        return found

    def leaf_statistics(self) -> dict[str, float]:
        """Summary used by the E2 build-statistics experiment."""
        sizes = np.array(
            [self.leaf_size(leaf) for leaf in range(self.first_leaf, 2 * self.first_leaf)]
        )
        elongations = np.array(
            [
                self.tight_box(leaf).elongation
                for leaf in range(self.first_leaf, 2 * self.first_leaf)
                if self.leaf_size(leaf) > 1
            ]
        )
        finite = elongations[np.isfinite(elongations)]
        return {
            "num_levels": float(self.num_levels),
            "num_leaves": float(self.num_leaves),
            "min_leaf_size": float(sizes.min()),
            "max_leaf_size": float(sizes.max()),
            "mean_leaf_size": float(sizes.mean()),
            "mean_leaf_elongation": float(finite.mean()) if len(finite) else 1.0,
        }


class KdTreeIndex(SpatialIndex):
    """Kd-tree + clustered engine table: the §3.2 index end to end."""

    def __init__(self, database: Database, table: Table, tree, dims: list[str]):
        self._db = database
        self._table = table
        self._tree = tree
        self._dims = list(dims)

    @staticmethod
    def build(
        database: Database,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        num_levels: int | None = None,
        axis_policy: str = "widest",
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        paged: bool = True,
    ) -> "KdTreeIndex":
        """Build the tree over ``data[dims]`` and materialize the clustered table.

        The table gains a ``kd_leaf`` column (the leaf's post-order id)
        and is clustered on it; the index registers itself in the catalog
        as ``<name>.kdtree``.

        With ``paged`` on (the default) the node arrays are serialized
        into compressed pages under the table's index namespace and the
        index serves traversals through a lazily materialized
        :class:`~repro.core.kdpaged.PagedKdTree` -- the in-memory arrays
        (including the O(N) build permutation) are released.  A write
        fault during paging degrades to serving the in-memory tree.
        ``paged=False`` keeps the in-memory tree (callers that need
        ``tree.permutation`` after the build).
        """
        points = stack_coordinates(data, list(dims))
        tree = KdTree(points, num_levels=num_levels, axis_policy=axis_policy)

        leaf_ids = np.empty(tree.num_points, dtype=np.int64)
        leaf_post = tree.leaf_post_order_ids()
        for j, leaf in enumerate(range(tree.first_leaf, 2 * tree.first_leaf)):
            start, end = tree.node_rows(leaf)
            leaf_ids[tree.permutation[start:end]] = leaf_post[j]

        table_data = dict(data)
        table_data["kd_leaf"] = leaf_ids
        # Clustering on kd_leaf reorders rows into left-to-right leaf order
        # (post-order ids of leaves increase left to right), which is the
        # same order as tree.permutation -- the row ranges in the tree
        # therefore address the clustered table directly.
        table = database.create_table(
            name, table_data, rows_per_page=rows_per_page, clustered_by=("kd_leaf",)
        )
        serving_tree = tree
        if paged:
            from repro.core.kdpaged import paged_tree_for

            serving_tree = paged_tree_for(database, table.physical_name, tree)
        index = KdTreeIndex(database, table, serving_tree, dims)
        database.register_index(f"{name}.kdtree", index)
        return index

    @property
    def table(self) -> Table:
        """The clustered data table."""
        return self._table

    @property
    def tree(self):
        """The tree structure serving traversals.

        Either an in-memory :class:`KdTree` or a paged
        :class:`~repro.core.kdpaged.PagedKdTree`; both expose the same
        traversal surface (``visit_info``, boxes, post-order ids, point
        location).  Only the in-memory tree carries ``permutation``.
        """
        return self._tree

    @property
    def dims(self) -> list[str]:
        """Ordered coordinate column names."""
        return list(self._dims)

    @property
    def table_name(self) -> str:
        """Name of the backing table (catalog bookkeeping)."""
        return self._table.name

    # -- queries ------------------------------------------------------------

    def query_polyhedron(
        self,
        polyhedron: Polyhedron,
        use_tight_boxes: bool = True,
        cancel_check=None,
        use_zone_maps: bool = True,
        memberships: dict[str, np.ndarray] | None = None,
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """Evaluate a polyhedron query through the tree (Figure 4).

        A batch of one of :func:`repro.core.batch.batch_kd_query`, which
        documents the traversal, the zone-map pruning of PARTIAL leaves,
        merge-on-read and the IN-list ``memberships``.  ``cancel_check``
        runs at every node visit and before every page read; whatever it
        raises is re-raised here.
        """
        return solo(
            batch_kd_query(
                self,
                [polyhedron],
                [cancel_check],
                use_tight_boxes=use_tight_boxes,
                use_zone_maps=use_zone_maps,
                memberships_list=[memberships],
            )
        )

    def traverse(
        self, members: Sequence[FetchMember], use_tight_boxes: bool = True
    ) -> list[tuple[int, int, int, bool]]:
        """The Figure 4 classification over a member set, in one walk.

        Each tree node is visited once and classified against every
        member still unresolved there: OUTSIDE members drop out of the
        subtree, INSIDE members claim its clustered row range (a bulk
        return), a PARTIAL leaf's range still needs the residual filter,
        and PARTIAL members of an inner node descend.  Returns
        ``(member, start, end, needs_filter)`` ranges in right-first
        depth-first order, every member resolving at a node named
        together.  That order is the read order the fetch kernel keeps
        (see :mod:`repro.db.fetch`); callers must not re-sort it.

        Counts into each member's ``stats``.  A member's
        ``cancel_check`` runs at every node visit; whatever it raises
        lands in the member's ``error`` and drops it from the walk, its
        siblings unaffected.
        """
        dim = len(self._dims)
        for member in members:
            if member.polyhedron.dim != dim:
                raise ValueError(f"polyhedron dim {member.polyhedron.dim} != index dim {dim}")
        tree = self._tree
        ranges: list[tuple[int, int, int, bool]] = []
        stack: list[tuple[int, tuple[int, ...]]] = [(1, tuple(range(len(members))))]
        while stack:
            node, active = stack.pop()
            live: list[int] = []
            for m in active:
                member = members[m]
                if member.error is not None:
                    continue
                if member.cancel_check is not None:
                    try:
                        member.cancel_check()
                    except BaseException as exc:
                        member.error = exc
                        continue
                live.append(m)
            if not live:
                continue
            start, end, box = tree.visit_info(node, use_tight_boxes)
            if start == end:
                continue
            deeper: list[int] = []
            for m in live:
                stats = members[m].stats
                stats.nodes_visited += 1
                relation = members[m].polyhedron.classify_box(box)
                if relation is BoxRelation.OUTSIDE:
                    stats.cells_outside += 1
                elif relation is BoxRelation.INSIDE:
                    stats.cells_inside += 1
                    ranges.append((m, start, end, False))
                elif tree.is_leaf(node):
                    stats.cells_partial += 1
                    ranges.append((m, start, end, True))
                else:
                    deeper.append(m)
            if deeper:
                below = tuple(deeper)
                stack.append((2 * node, below))
                stack.append((2 * node + 1, below))
        return ranges

    def candidate_ranges(
        self, members: Sequence[FetchMember], use_tight_boxes: bool = True
    ) -> list[list[tuple[int, int]]]:
        """Each member's clustered row ranges the traversal would fetch.

        Runs :meth:`traverse` only -- no page I/O -- and returns, per
        member, the ``[start, end)`` ranges of its INSIDE subtrees and
        PARTIAL leaves.  The union of a member's ranges is a
        conservative superset of its answer's main-tier rows; the hybrid
        engine intersects it with the bitmap candidate set.
        """
        per_member: list[list[tuple[int, int]]] = [[] for _ in members]
        for m, start, end, _ in self.traverse(members, use_tight_boxes):
            per_member[m].append((start, end))
        return per_member

    def query_polyhedron_stream(self, polyhedron: Polyhedron, use_tight_boxes: bool = True):
        """Streaming variant of :meth:`query_polyhedron`.

        Yields ``(rows, relation)`` chunks range by range -- the
        index-level analog of §3.1's "stream the points back to the
        client" idea: a caller (e.g. a visualization producer) can start
        consuming INSIDE subtrees while partial leaves are still being
        fetched and filtered.
        """
        member = FetchMember(polyhedron=polyhedron, dims=self._dims)
        ranges = self.traverse([member], use_tight_boxes)
        zone_map = self._table.zone_map()
        if zone_map is not None:
            member.pruner = zone_map.pruner(polyhedron, self._dims)
        snapshot = self._table.delta_snapshot()
        tombstones = snapshot.tombstones if snapshot is not None else None
        for _, start, end, needs_filter in ranges:
            rows, _ = solo(
                fetch(
                    self._table,
                    [member],
                    range_segments(self._table, 0, start, end, needs_filter),
                    tombstones=tombstones,
                )
            )
            if needs_filter and not len(rows["_row_id"]):
                continue
            yield rows, BoxRelation.PARTIAL if needs_filter else BoxRelation.INSIDE
        piece = delta_piece(snapshot, member)
        if piece is not None:
            yield piece, BoxRelation.PARTIAL

    def leaf_rows(
        self, leaf: int, tombstones=AUTO_TOMBSTONES
    ) -> tuple[dict[str, np.ndarray], QueryStats]:
        """Fetch the live rows of one leaf (used by the k-NN procedures).

        Tombstoned rows are suppressed; delta inserts are *not* merged
        here -- k-NN callers offer them to their candidate heap directly.
        """
        start, end = self._tree.node_rows(leaf)
        return range_scan(self._table, start, end, tombstones=tombstones)
