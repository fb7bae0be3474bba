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
* **Polyhedron evaluation** (Figure 4): classification of node bounding
  boxes against the query polyhedron, one tree level at a time (the
  query-side mirror of the level-wise build); fully inside -> bulk
  return, outside -> reject, partial inner nodes -> descend, partial
  leaves -> residual per-point filter.

The tree keeps two box families per node: the *partition* box (the cell of
the recursive space partition -- these tile the root box and drive the
boundary-point k-NN of §3.3) and the *tight* box (the bounding box of the
node's actual points -- these give much better pruning on highly clustered
data and are what the paper visualizes in Figure 15).

**One clustered loader.**  Every kd-clustered table -- a fresh build, a
merge generation, a shard -- is loaded by the same two steps.
:func:`cluster` is pure: it builds the :class:`KdTree` and returns the
``kd_leaf`` column, the encoded node pages and their
:class:`~repro.core.kdpaged.PagedTreeLayout`.  :func:`install` writes the
clustered table and the node pages (plus a bitmap index when asked) and
returns a :class:`KdTreeIndex` serving through a
:class:`~repro.core.kdpaged.PagedKdTree`.  The halves split so a shard's
parent can cluster and its worker install.  :class:`KdTree` itself is
build-only: it is never registered or served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import batch_kd_query
from repro.core.index_base import SpatialIndex, stack_coordinates
from repro.core.kdpaged import (
    HeapTree,
    PagedKdTree,
    PagedTreeLayout,
    post_order_ids,
    tree_node_pages,
)
from repro.db.catalog import Database
from repro.db.errors import StorageFault
from repro.db.fetch import FetchMember, delta_piece, fetch, range_segments, solo
from repro.db.pages import PageCodec
from repro.db.scan import AUTO_TOMBSTONES, range_scan
from repro.db.stats import QueryStats
from repro.db.storage import index_namespace
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import INSIDE, OUTSIDE, PARTIAL, Polyhedron

__all__ = [
    "Clustering",
    "KdTree",
    "KdTreeIndex",
    "cluster",
    "default_num_levels",
    "install",
]


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


class KdTree(HeapTree):
    """The build-time structure: node arrays of a perfect binary heap.

    The structure is small -- O(√N) nodes under the default sizing --
    and is the "cover index table" of the paper; the point data itself
    lives in the clustered engine table.  It holds the node arrays and
    the build ``permutation``; queries are served by the
    :class:`~repro.core.kdpaged.PagedKdTree` its node pages load into
    (see :func:`cluster`).
    """

    def __init__(self, points: np.ndarray, num_levels: int | None = None,
                 axis_policy: str = "widest"):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if axis_policy not in ("widest", "cycle"):
            raise ValueError("axis_policy must be 'widest' or 'cycle'")
        self.num_points, self.dim = points.shape
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

        (
            self.permutation,
            self._split_axis,
            self._split_value,
            self._seg_start,
            self._seg_end,
        ) = self._build(points)
        self._partition_lo, self._partition_hi = self._partition_boxes(points)
        self._tight_lo, self._tight_hi = self._tight_boxes(points)
        self._post_order = np.zeros(self.num_nodes + 1, dtype=np.int64)
        self._post_order[1:] = post_order_ids(
            np.arange(1, self.num_nodes + 1), self.num_levels
        )

    # -- build -------------------------------------------------------------

    def _build(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Level-by-level median partitioning (the iterative SQL build).

        Returns the permutation and the per-slot split axes, split
        values and row-range starts and ends.
        """
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
        return perm, split_axis, split_value, seg_start, seg_end

    def _choose_axis(self, points: np.ndarray, segment: np.ndarray, level: int) -> int:
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

    # -- structure accessors ----------------------------------------------------

    def node_rows(self, node: int) -> tuple[int, int]:
        """Clustered row range ``[start, end)`` covered by a node's subtree."""
        return int(self._seg_start[node]), int(self._seg_end[node])

    def partition_box(self, node: int) -> Box:
        """The space-tiling partition cell of a node."""
        return Box(self._partition_lo[node], self._partition_hi[node])

    def tight_box(self, node: int) -> Box:
        """The bounding box of the node's actual points."""
        if not np.all(np.isfinite(self._tight_lo[node])):
            return self.partition_box(node)
        return Box(self._tight_lo[node], self._tight_hi[node])

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

    def leaf_ids(self) -> np.ndarray:
        """Each input row's leaf post-order id: the ``kd_leaf`` column.

        Leaves tile the build permutation left to right, so one repeat
        of the leaf ids over the leaf sizes, scattered through
        ``permutation``, tags every row.
        """
        leaves = np.arange(self.first_leaf, 2 * self.first_leaf)
        ids = np.empty(self.num_points, dtype=np.int64)
        ids[self.permutation] = np.repeat(
            self._post_order[leaves], self._seg_end[leaves] - self._seg_start[leaves]
        )
        return ids


@dataclass(frozen=True)
class Clustering:
    """What :func:`cluster` computes and :func:`install` writes.

    Picklable and self-contained: a shard's parent ships it to the
    worker inside the :class:`~repro.shard.partitioner.ShardSpec`.
    """

    #: Leaf post-order id per input row (the clustering column).
    kd_leaf: np.ndarray
    #: Encoded (``RPGZ``) node pages in post-order.
    node_pages: tuple[bytes, ...]
    layout: PagedTreeLayout


def cluster(
    columns: dict[str, np.ndarray],
    dims: Sequence[str],
    *,
    levels: int | None = None,
    axis_policy: str = "widest",
) -> Clustering:
    """Build the kd-tree over ``columns[dims]``: the pure half of a load.

    The clustered table's row order follows from ``kd_leaf`` alone: the
    stable cluster sort puts rows in left-to-right leaf order, so the
    node pages' row ranges address the table :func:`install` writes.
    """
    tree = KdTree(
        stack_coordinates(columns, list(dims)), num_levels=levels, axis_policy=axis_policy
    )
    return Clustering(
        kd_leaf=tree.leaf_ids(),
        node_pages=tuple(PageCodec.encode(page) for page in tree_node_pages(tree)),
        layout=PagedTreeLayout.for_tree(tree),
    )


def install(
    database: Database,
    name: str,
    columns: dict[str, np.ndarray],
    dims: Sequence[str],
    clustering: Clustering,
    *,
    rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    physical_name: str | None = None,
    bitmap_bins: int | None = None,
):
    """Write a clustered table and its node pages: the storage half of a load.

    Creates table ``name`` from ``columns`` plus ``clustering.kd_leaf``,
    clustered on ``kd_leaf``, then writes the node pages under the
    table's index namespace -- straight to storage, so a freshly loaded
    index starts cold -- and, when ``bitmap_bins`` is nonzero, builds a
    bitmap index with that many bins per column over ``dims``.
    Without ``physical_name`` the table and both indexes are registered;
    a merge passes its new generation's name instead, registers nothing
    and swaps the returned indexes in with the table.

    Write faults: a :class:`~repro.db.errors.StorageFault` while writing
    the table or the node pages drops whatever this load wrote and
    re-raises; one while building the bitmap drops the bitmap.

    Returns ``(kd_index, bitmap_index)``, the second ``None`` when no
    bitmap was asked for or its build faulted.
    """
    from repro.bitmap.index import BitmapIndex

    register = physical_name is None
    table_data = dict(columns)
    table_data["kd_leaf"] = clustering.kd_leaf
    try:
        if register:
            table = database.create_table(
                name, table_data, rows_per_page=rows_per_page, clustered_by=("kd_leaf",)
            )
        else:
            table = Table.create(
                database,
                name,
                table_data,
                rows_per_page=rows_per_page,
                clustered_by=("kd_leaf",),
                physical_name=physical_name,
            )
        namespace = index_namespace(table.physical_name)
        database.buffer_pool.invalidate(namespace)
        database.storage.drop_namespace(namespace)
        for blob in clustering.node_pages:
            database.storage.write_page(namespace, PageCodec.decode(blob))
    except StorageFault:
        if register:
            database.drop_table(name)
        else:
            database.drop_generation(physical_name)
        raise
    tree = PagedKdTree(database, table.physical_name, clustering.layout)
    index = KdTreeIndex(database, table, tree, list(dims))
    if register:
        database.register_index(f"{name}.kdtree", index)
    bitmap_index = None
    if bitmap_bins:
        try:
            bitmap_index = BitmapIndex.build(
                database,
                name,
                list(dims),
                num_bins=bitmap_bins,
                register=register,
                table=table,
            )
        except StorageFault:
            pass
    return index, bitmap_index


class KdTreeIndex(SpatialIndex):
    """Kd-tree + clustered engine table: the §3.2 index end to end."""

    def __init__(
        self, database: Database, table: Table, tree: PagedKdTree, dims: list[str]
    ):
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
    ) -> "KdTreeIndex":
        """Build the tree over ``data[dims]`` and materialize the clustered table.

        One :func:`cluster` plus :func:`install`: the table gains a
        ``kd_leaf`` column (the leaf's post-order id) and is clustered
        on it, the node arrays are paged under the table's index
        namespace, and the index registers itself in the catalog as
        ``<name>.kdtree``.  A write fault raises and leaves nothing
        behind.
        """
        clustering = cluster(data, dims, levels=num_levels, axis_policy=axis_policy)
        index, _ = install(
            database, name, data, dims, clustering, rows_per_page=rows_per_page
        )
        return index

    @property
    def table(self) -> Table:
        """The clustered data table."""
        return self._table

    @property
    def tree(self) -> PagedKdTree:
        """The paged tree serving traversals."""
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
        runs once per step of the walk (a tree level, see
        :meth:`traverse`) and before every page read; whatever it raises
        is re-raised here.
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
        """The Figure 4 classification over a member set, one level at a time.

        The walk keeps a frontier of nodes at one depth and, per node,
        the members still unresolved there.  Each level gathers the
        frontier's row ranges and boxes in one pass over the node pages
        (:meth:`~repro.core.kdpaged.PagedKdTree.level_info`), drops empty
        nodes, and classifies the level with one
        :meth:`~repro.geometry.halfspace.Polyhedron.classify_boxes` call
        per live member, reading the verdicts of the (node, member)
        pairs still open: OUTSIDE members drop out of the subtree, INSIDE
        members claim its clustered row range (a bulk return), a PARTIAL
        leaf's range still needs the residual filter, and PARTIAL members
        of an inner node descend to both children.  On a tree larger
        than its node cache the next frontier may be cut into runs
        (:meth:`~repro.core.kdpaged.PagedKdTree.frontier_blocks`), each
        walked to its leaves before the next, so node pages are not
        evicted between the levels that read them.

        Returns ``(member, start, end, needs_filter)`` ranges sorted by
        end row descending, then start, depth and member.  That is
        right-first depth-first order -- a right subtree before its left
        sibling, a node before its descendants -- with every member
        resolving at a node named together.  That order is the read
        order the fetch kernel keeps (see :mod:`repro.db.fetch`);
        callers must not re-sort it.

        Counts into each member's ``stats``.  A member's ``cancel_check``
        runs once per step -- one level of one run -- while the member
        is still in that run; whatever it raises lands in the member's
        ``error`` and drops it from the walk, its siblings unaffected.
        """
        dim = len(self._dims)
        for member in members:
            if member.polyhedron.dim != dim:
                raise ValueError(f"polyhedron dim {member.polyhedron.dim} != index dim {dim}")
        tree = self._tree
        leaf_depth = tree.num_levels - 1
        codes_base = 3 * np.arange(len(members))
        found: list[tuple[np.ndarray, ...]] = []
        # Steps of (depth, ascending nodes, active): active[i, m] says
        # member m is unresolved at nodes[i].  Every row has an active
        # member until a cancel check drops one.
        steps = [
            (
                0,
                np.ones(1, dtype=np.int64),
                np.array([[member.error is None for member in members]], dtype=bool),
            )
        ]
        while steps:
            depth, nodes, active = steps.pop()
            live = np.flatnonzero(active.any(axis=0)).tolist()
            dropped = False
            for m in live:
                member = members[m]
                if member.error is None and member.cancel_check is not None:
                    try:
                        member.cancel_check()
                    except BaseException as exc:
                        member.error = exc
                # An error may also come from this member's step in another run.
                if member.error is not None:
                    active[:, m] = False
                    dropped = True
            if dropped:
                live = [m for m in live if members[m].error is None]
                keep = active.any(axis=1)
                nodes, active = nodes[keep], active[keep]
            if not live:
                continue
            start, end, lo, hi = tree.level_info(nodes, depth, use_tight_boxes)
            filled = start < end
            if not filled.all():
                nodes, active = nodes[filled], active[filled]
                start, end, lo, hi = start[filled], end[filled], lo[filled], hi[filled]
            # Read only where ``active``: a member classifies the whole level.
            relation = np.zeros(active.shape, dtype=np.int8)
            for m in live:
                relation[:, m] = members[m].polyhedron.classify_boxes(lo, hi)
            leaf = depth == leaf_depth
            counts = np.bincount(
                (codes_base + relation)[active], minlength=3 * len(members)
            ).reshape(-1, 3)
            for m in live:
                stats = members[m].stats
                stats.nodes_visited += int(counts[m].sum())
                stats.cells_outside += int(counts[m, OUTSIDE])
                stats.cells_inside += int(counts[m, INSIDE])
                if leaf:
                    stats.cells_partial += int(counts[m, PARTIAL])
            partial = active & (relation == PARTIAL)
            claimed = active & (relation == INSIDE)
            if leaf:
                claimed |= partial
            rows, claimers = np.nonzero(claimed)
            if len(rows):
                found.append(
                    (
                        claimers,
                        start[rows],
                        end[rows],
                        relation[rows, claimers] == PARTIAL,
                        np.full(len(rows), depth),
                    )
                )
            descend = partial.any(axis=1)
            if leaf or not descend.any():
                continue
            nodes = np.stack([2 * nodes[descend], 2 * nodes[descend] + 1], axis=1).ravel()
            active = np.repeat(partial[descend], 2, axis=0)
            for block in reversed(tree.frontier_blocks(nodes, depth + 1)):
                steps.append((depth + 1, nodes[block], active[block]))
        if not found:
            return []
        member, start, end, needs_filter, depth = (
            np.concatenate(column) for column in zip(*found)
        )
        order = np.lexsort((member, depth, start, -end))
        return list(
            zip(
                member[order].tolist(),
                start[order].tolist(),
                end[order].tolist(),
                needs_filter[order].tolist(),
            )
        )

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
