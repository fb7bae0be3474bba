"""Paged kd-tree: node arrays in compressed storage pages, served lazily.

Every :class:`~repro.core.kdtree.KdTreeIndex` serves its traversals
through a :class:`PagedKdTree`.  The clustered loader
(:func:`~repro.core.kdtree.cluster` / :func:`~repro.core.kdtree.install`)
serializes a freshly built :class:`~repro.core.kdtree.KdTree`'s node
arrays into fixed-size zlib-compressed pages (``RPGZ``) under the
table's index namespace in the same :class:`~repro.db.storage.Storage`
that holds the data pages -- an in-memory database pages them into its
:class:`~repro.db.storage.MemoryStorage` -- and the build-time arrays
are released.  :class:`PagedKdTree` materializes node pages on demand
via the shared :class:`~repro.db.buffer_pool.BufferPool`, so index I/O
gets the same coalesced read-ahead, CRC32 verify-once discipline, and
fault/retry/torn-page semantics as data I/O.

Layout.  Nodes are written in **post-order** (the paper's §3.2
numbering), sliced into groups of ``nodes_per_page``.  Post-order keeps
subtrees page-local: the descendants of any node occupy a contiguous
run of post-order slots ending at the node itself.  The nodes of one
level appear left to right, so a level's frontier in heap order visits
its node pages in ascending order: the query walk and insert routing
gather a level with one node-cache probe per page
(:meth:`PagedKdTree.level_info`).
Because the tree is a perfect binary heap, a node's post-order
position is *computable from its heap index alone*
(:func:`post_order_index`, and :func:`post_order_ids` for arrays):
structural queries -- post-order ids, BETWEEN ranges, subtree sizes --
need no I/O at all.  Only the geometry (split planes, partition/tight
boxes) and row ranges live in pages.

Above the buffer pool sits a small byte-budgeted **node cache** per
tree: decoded node pages with their box columns reshaped to ``(n, dim)``
so ``partition_box``/``tight_box`` return zero-copy row views.  Its
budget (:data:`~repro.db.buffer_pool.DEFAULT_INDEX_CACHE_BYTES`, 4 MB)
is deliberately far below a deep tree's node arrays -- the point of the
exercise is an index working set bounded regardless of index size.
Hits, misses, materializations, and evictions are counted in
:class:`~repro.db.stats.IOStats` (``node_cache_*``,
``index_pages_decoded``).

Design per breezy's ``btree_index.py`` (zlib node pages, bounded
``_NODE_CACHE_SIZE``, hit-rate counters); the bulk write in post-order
follows the external bulk-loading playbook for space-partitioning trees.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.db.errors import StorageFault
from repro.db.pages import Page
from repro.db.storage import index_namespace
from repro.geometry.boxes import Box

__all__ = [
    "DEFAULT_NODES_PER_PAGE",
    "HeapTree",
    "MIN_BLOCK_PAGES",
    "PagedTreeLayout",
    "PagedKdTree",
    "post_order_ids",
    "post_order_index",
    "tree_node_pages",
]

#: Nodes per index page.  At ~200 bytes of node payload in 3-4
#: dimensions this is ~100-200 KB uncompressed per page -- large enough
#: that zlib sees real redundancy across sibling boxes, small enough
#: that a 4 MB node cache holds dozens of pages.
DEFAULT_NODES_PER_PAGE = 512


def post_order_index(node: int, num_levels: int) -> int:
    """0-based post-order position of heap node ``node`` -- pure arithmetic.

    The root-to-node path is encoded in the heap index's bits: every
    right turn skips the whole left sibling subtree (post-order visits
    it first), and the node itself is the *last* slot of its own
    subtree.  In a perfect binary tree every subtree size is determined
    by depth alone, so the sum over right turns telescopes to a closed
    form: with ``d = depth(node)`` and ``s = 2**(num_levels - d)``,

        post_order = (node - 2**d + 1) * s - 1 - popcount(node)

    (each path bit contributes ``bit * 2**(num_levels - k) - bit``;
    the powers collapse into the shifted node index, the ``- bit``
    terms into the popcount).  The level walks evaluate it as one array
    expression per level, every node of a level sharing ``d``.
    """
    node = int(node)
    depth = node.bit_length() - 1
    span = 1 << (num_levels - depth)
    return (node - (1 << depth) + 1) * span - 1 - node.bit_count()


#: Fewest node pages a run of :meth:`PagedKdTree.frontier_blocks` may
#: cover.  One step of the level walk costs about as much as
#: materializing five or six node pages, and a run re-walks every level
#: below its cut, so narrower runs save fewer decodes than they add steps.
MIN_BLOCK_PAGES = 16

#: Set bits of every 16-bit value.  numpy before 2.0 has no
#: ``bitwise_count``; a table lookup per 16 bits of heap index is its
#: stand-in (one lookup for trees of up to 16 levels).
_POPCOUNT16 = (
    np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8))
    .reshape(-1, 16)
    .sum(axis=1, dtype=np.uint8)
)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Set bits of each non-negative ``int64`` below ``2**bits``."""
    count = _POPCOUNT16[values & 0xFFFF]
    for shift in range(16, bits, 16):
        count = count + _POPCOUNT16[(values >> shift) & 0xFFFF]
    return count


def post_order_ids(nodes: np.ndarray, num_levels: int) -> np.ndarray:
    """1-based post-order ids of an array of heap nodes.

    :func:`post_order_index` plus one, vectorized: the insert path tags
    each inserted row with its leaf's id without a per-leaf table.
    numpy before 2.0 has no popcount, so depth and popcount loop over
    the ``num_levels`` bits a heap index can carry.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    depth = np.zeros_like(nodes)
    popcount = nodes & 1
    for bit in range(1, num_levels):
        shifted = nodes >> bit
        depth += shifted > 0
        popcount += shifted & 1
    return (nodes - (1 << depth) + 1) * (1 << (num_levels - depth)) - popcount


class HeapTree:
    """What a kd-tree knows from its depth alone.

    A perfect binary heap of ``num_levels`` levels: node ``h`` (1-based)
    has children ``2h`` and ``2h + 1`` and leaves occupy
    ``[2**(L-1), 2**L)``.  Shared by the build-time
    :class:`~repro.core.kdtree.KdTree` and the served
    :class:`PagedKdTree`, which supply ``num_levels``, ``node_rows`` and
    ``tight_box``.
    """

    num_levels: int

    @property
    def num_leaves(self) -> int:
        return 2 ** (self.num_levels - 1)

    @property
    def num_nodes(self) -> int:
        """Heap slots ``1..num_nodes`` (slot 0 unused)."""
        return 2**self.num_levels - 1

    @property
    def first_leaf(self) -> int:
        """Heap index of the leftmost leaf."""
        return 2 ** (self.num_levels - 1)

    def is_leaf(self, node: int) -> bool:
        """Whether a heap node is a leaf."""
        return node >= self.first_leaf

    def leaf_size(self, leaf: int) -> int:
        """Number of rows in a leaf."""
        start, end = self.node_rows(leaf)
        return end - start

    def post_order_range(self, node: int) -> tuple[int, int]:
        """Inclusive BETWEEN bounds covering every descendant of ``node``."""
        node_id = post_order_index(node, self.num_levels) + 1
        subtree = 2 ** (self.num_levels - int(node).bit_length() + 1) - 1
        return node_id - subtree + 1, node_id

    def leaf_statistics(self) -> dict[str, float]:
        """Summary used by the E2 build-statistics experiment."""
        leaves = range(self.first_leaf, 2 * self.first_leaf)
        sizes = np.array([self.leaf_size(leaf) for leaf in leaves])
        elongations = np.array(
            [self.tight_box(leaf).elongation for leaf in leaves if self.leaf_size(leaf) > 1]
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


@dataclass(frozen=True)
class PagedTreeLayout:
    """Everything needed to reopen a paged tree without reading a page.

    Persisted in the catalog (``kd_indexes``) and carried, with the
    node pages, by a :class:`~repro.core.kdtree.Clustering`.
    """

    num_points: int
    num_levels: int
    dim: int
    axis_policy: str
    nodes_per_page: int
    num_pages: int

    @staticmethod
    def for_tree(tree, nodes_per_page: int = DEFAULT_NODES_PER_PAGE) -> "PagedTreeLayout":
        num_nodes = tree.num_nodes
        return PagedTreeLayout(
            num_points=tree.num_points,
            num_levels=tree.num_levels,
            dim=tree.dim,
            axis_policy=tree.axis_policy,
            nodes_per_page=nodes_per_page,
            num_pages=(num_nodes + nodes_per_page - 1) // nodes_per_page,
        )


def tree_node_pages(tree, nodes_per_page: int = DEFAULT_NODES_PER_PAGE) -> list[Page]:
    """Serialize a built tree's node arrays into compressed pages.

    Nodes are sorted by post-order id and sliced into groups of
    ``nodes_per_page``.  Box coordinates are flattened to 1-D columns
    (``plo``/``phi``/``tlo``/``thi``, length ``n_slots * dim``) because
    pages carry 1-D arrays; :class:`PagedKdTree` reshapes them back to
    ``(n_slots, dim)`` at materialization.  The ``heap`` column records
    each slot's heap index for integrity checks and debugging.
    """
    arrays = tree.export_node_arrays()
    # post_order[1:] is a permutation of 1..num_nodes; argsort recovers
    # the heap index occupying each post-order slot.
    order = np.argsort(arrays["post_order"][1:], kind="stable").astype(np.int64) + 1
    num_nodes = tree.num_nodes
    pages: list[Page] = []
    for start in range(0, num_nodes, nodes_per_page):
        sl = order[start:start + nodes_per_page]
        columns = {
            "heap": sl,
            "split_axis": np.ascontiguousarray(arrays["split_axis"][sl]),
            "split_value": np.ascontiguousarray(arrays["split_value"][sl]),
            "seg_start": np.ascontiguousarray(arrays["seg_start"][sl]),
            "seg_end": np.ascontiguousarray(arrays["seg_end"][sl]),
            "plo": np.ascontiguousarray(arrays["partition_lo"][sl]).reshape(-1),
            "phi": np.ascontiguousarray(arrays["partition_hi"][sl]).reshape(-1),
            "tlo": np.ascontiguousarray(arrays["tight_lo"][sl]).reshape(-1),
            "thi": np.ascontiguousarray(arrays["tight_hi"][sl]).reshape(-1),
        }
        pages.append(
            Page(
                page_id=start // nodes_per_page,
                start_row=start,
                columns=columns,
                compress=True,
            )
        )
    return pages


class PagedKdTree(HeapTree):
    """Lazily materialized view of a paged kd-tree: the one serving tree.

    Serves the traversal surface -- node visits, boxes, split planes,
    post-order ids, point location -- over the node pages the clustered
    loader wrote.  The build-time :class:`~repro.core.kdtree.KdTree`
    (with its O(N) ``permutation``) is not kept: residency here is
    O(cache budget).

    Structural queries (post-order ids/ranges, subtree sizes) are
    arithmetic on heap indexes and never touch storage.
    Geometry and row-range accessors probe the node cache; a miss pulls
    the node page through the shared buffer pool (read-ahead over the
    next pages of the post-order sequence) and materializes it under
    this tree's byte budget.

    Faults surface exactly like data-page faults: transient/torn reads
    are retried by the pool's policy, an exhausted budget or a missing
    page raises a :class:`~repro.db.errors.StorageFault`, which the
    planner catches to fall back to a scan.
    """

    def __init__(
        self,
        database,
        physical_name: str,
        layout: PagedTreeLayout,
        node_cache_bytes: int | None = None,
    ):
        self._db = database
        self.layout = layout
        self.namespace = index_namespace(physical_name)
        self.num_points = layout.num_points
        self.num_levels = layout.num_levels
        self.dim = layout.dim
        self.axis_policy = layout.axis_policy
        if node_cache_bytes is None:
            node_cache_bytes = database.options.index_cache_bytes
        self.node_cache_bytes = int(node_cache_bytes)
        #: page_id -> (materialized column dict, approximate bytes)
        self._node_cache: OrderedDict[int, tuple[dict, int]] = OrderedDict()
        self._resident = 0
        self.max_resident_bytes = 0
        self._lock = threading.RLock()

    # -- node cache ---------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Approximate bytes currently held by the node cache."""
        with self._lock:
            return self._resident

    def drop_node_cache(self) -> None:
        """Empty the node cache (cold-cache experiments, index drops)."""
        with self._lock:
            self._node_cache.clear()
            self._resident = 0

    def _page_columns(self, page_id: int) -> dict:
        """The materialized node columns of one index page."""
        stats = self._db.io_stats
        with self._lock:
            entry = self._node_cache.get(page_id)
            if entry is not None:
                self._node_cache.move_to_end(page_id)
                stats.add(node_cache_hits=1)
                return entry[0]
            stats.add(node_cache_misses=1)
            pool = self._db.buffer_pool
            window = max(1, pool.readahead_pages)
            if window > 1 and page_id + 1 < self.layout.num_pages:
                pool.prefetch(
                    self.namespace,
                    range(page_id, min(page_id + window, self.layout.num_pages)),
                )
            try:
                page = pool.get(self.namespace, page_id)
            except KeyError:
                raise StorageFault(
                    f"index page {page_id} missing from {self.namespace!r}"
                ) from None
            cols = dict(page.columns)
            for name in ("plo", "phi", "tlo", "thi"):
                cols[name] = cols[name].reshape(-1, self.dim)
            nbytes = sum(arr.nbytes for arr in cols.values())
            self._node_cache[page_id] = (cols, nbytes)
            self._resident += nbytes
            stats.add(index_pages_decoded=1)
            if self._resident > self.max_resident_bytes:
                self.max_resident_bytes = self._resident
            evicted = 0
            while self._resident > self.node_cache_bytes and len(self._node_cache) > 1:
                _, (_, old_bytes) = self._node_cache.popitem(last=False)
                self._resident -= old_bytes
                evicted += 1
            if evicted:
                stats.add(node_cache_evictions=evicted)
            return cols

    def _slot(self, node: int) -> tuple[dict, int]:
        post = post_order_index(node, self.num_levels)
        npp = self.layout.nodes_per_page
        return self._page_columns(post // npp), post % npp

    # -- structure accessors (arithmetic; no I/O) ---------------------------

    def post_order_id(self, node: int) -> int:
        """Post-order id of a heap node (1-based like the paper's)."""
        return post_order_index(node, self.num_levels) + 1

    # -- paged accessors ----------------------------------------------------

    def node_rows(self, node: int) -> tuple[int, int]:
        """Clustered row range ``[start, end)`` covered by a node's subtree."""
        cols, slot = self._slot(node)
        return int(cols["seg_start"][slot]), int(cols["seg_end"][slot])

    def partition_box(self, node: int) -> Box:
        """The space-tiling partition cell of a node."""
        cols, slot = self._slot(node)
        return Box(cols["plo"][slot], cols["phi"][slot])

    def tight_box(self, node: int) -> Box:
        """The bounding box of the node's actual points."""
        cols, slot = self._slot(node)
        tlo = cols["tlo"][slot]
        if not np.all(np.isfinite(tlo)):
            return Box(cols["plo"][slot], cols["phi"][slot])
        return Box(tlo, cols["thi"][slot])

    def split_plane(self, node: int) -> tuple[int, float]:
        """``(axis, value)`` of an internal node's cut."""
        if self.is_leaf(node):
            raise ValueError(f"node {node} is a leaf")
        cols, slot = self._slot(node)
        return int(cols["split_axis"][slot]), float(cols["split_value"][slot])

    def _post_slots(self, nodes: np.ndarray, depth: int) -> np.ndarray:
        """0-based post-order slots of heap ``nodes``, all at ``depth``.

        Depth is shared, so this is one array expression of
        :func:`post_order_index`'s closed form.
        """
        span = 1 << (self.num_levels - depth)
        return (nodes - (1 << depth) + 1) * span - 1 - _popcount(nodes, depth + 1)

    def frontier_blocks(self, nodes: np.ndarray, depth: int) -> list[slice]:
        """Cut ascending heap ``nodes`` at ``depth`` into runs to walk one by one.

        A level walk reads a frontier's node pages again at every level
        below it.  When the pages under the frontier outnumber what the
        node cache holds, sweeping them level by level evicts each page
        before the next level needs it.  The frontier is then cut into
        runs of consecutive subtrees whose pages fit in the cache
        together, for the walk to take each run to its leaves before the
        next.  Runs narrower than ``MIN_BLOCK_PAGES`` would cost more
        walk steps than the decodes they save, so a cache too small for
        such a run gets one run, as does a tree the cache holds whole.
        """
        npp = self.layout.nodes_per_page
        # A decoded node page: five 8-byte columns and four ``dim``-wide
        # 8-byte box columns per node (see :func:`tree_node_pages`).
        fits = self.node_cache_bytes // (npp * 8 * (5 + 4 * self.dim))
        whole = [slice(0, len(nodes))]
        if self.layout.num_pages <= fits or fits <= MIN_BLOCK_PAGES:
            return whole
        size = (1 << (self.num_levels - depth)) - 1
        post = self._post_slots(nodes, depth)
        first_page = (post - size + 1) // npp
        if post[-1] // npp - first_page[0] < fits:
            return whole
        # Subtrees whose first pages fall in one window of ``window``
        # pages span at most ``window + spread - 1`` pages, ``spread``
        # being the most pages one subtree's slots can touch.  Cutting
        # waits for a window of two subtrees or more: a run of one big
        # subtree re-walks every level below for one subtree's nodes.
        spread = (size + npp - 2) // npp + 1
        window = fits - spread + 1
        if window < max(2 * spread, MIN_BLOCK_PAGES):
            return whole
        key = first_page // window
        bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(nodes)]
        return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def _level_pages(
        self, nodes: np.ndarray, depth: int
    ) -> list[tuple[dict, np.ndarray]]:
        """``(page columns, slots)`` runs covering ascending heap ``nodes`` at ``depth``.

        Within a level post-order runs left to right, so each node
        page's nodes form one contiguous run: one node-cache probe per
        page.
        """
        post = self._post_slots(nodes, depth)
        npp = self.layout.nodes_per_page
        pages = post // npp
        slots = post - pages * npp
        if pages[0] == pages[-1]:
            return [(self._page_columns(int(pages[0])), slots)]
        bounds = [0, *(np.flatnonzero(pages[1:] != pages[:-1]) + 1).tolist(), len(nodes)]
        return [
            (self._page_columns(int(pages[first])), slots[first:stop])
            for first, stop in zip(bounds[:-1], bounds[1:])
        ]

    @staticmethod
    def _gather(runs: list[tuple[dict, np.ndarray]], name: str) -> np.ndarray:
        parts = [cols[name][slots] for cols, slots in runs]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def level_info(self, nodes: np.ndarray, depth: int, tight: bool = True):
        """:meth:`visit_info` for a whole level: ``(start, end, lo, hi)`` arrays.

        ``nodes`` are ascending heap indexes at ``depth``, at least one.
        Each node's box is its tight box where that is finite and its
        partition box otherwise, as :meth:`visit_info` chooses; empty
        nodes (``start == end``) are included, for the caller to drop.
        """
        runs = self._level_pages(nodes, depth)
        start, end = self._gather(runs, "seg_start"), self._gather(runs, "seg_end")
        if not tight:
            return start, end, self._gather(runs, "plo"), self._gather(runs, "phi")
        lo, hi = self._gather(runs, "tlo"), self._gather(runs, "thi")
        finite = np.isfinite(lo).all(axis=1)
        if not finite.all():
            finite = finite[:, np.newaxis]
            lo = np.where(finite, lo, self._gather(runs, "plo"))
            hi = np.where(finite, hi, self._gather(runs, "phi"))
        return start, end, lo, hi

    def visit_info(self, node: int, tight: bool = True):
        """One-probe node visit: ``(start, end, box)``.

        The traversal hot loop needs a node's row range and its box
        together; fetching them through separate accessors costs two
        cache probes.  ``box`` is ``None`` for empty nodes (the
        traversals skip those before classifying).
        """
        cols, slot = self._slot(node)
        start = int(cols["seg_start"][slot])
        end = int(cols["seg_end"][slot])
        if start == end:
            return start, end, None
        if tight:
            tlo = cols["tlo"][slot]
            if np.all(np.isfinite(tlo)):
                return start, end, Box(tlo, cols["thi"][slot])
        return start, end, Box(cols["plo"][slot], cols["phi"][slot])

    # -- point location ------------------------------------------------------

    def leaf_of_points(self, points: np.ndarray) -> np.ndarray:
        """Heap index of the leaf whose partition cell holds each row of ``points``.

        Level-synchronous: the whole ``(n, d)`` batch steps down one
        level at a time, and each level gathers the split planes of its
        distinct frontier nodes with one node-cache probe per node page.
        Ties on a cut plane go left, as the build does.
        """
        points = np.asarray(points, dtype=np.float64)
        rows = np.arange(len(points))
        if not len(points):
            return rows
        # The frontier of distinct nodes (ascending) and each point's
        # index into it; a child's slot in the next frontier is
        # 2 * index + side, so presence counts stay within 2 * frontier.
        frontier = np.ones(1, dtype=np.int64)
        member = np.zeros(len(points), dtype=np.int64)
        for depth in range(self.num_levels - 1):
            runs = self._level_pages(frontier, depth)
            axes = self._gather(runs, "split_axis")[member]
            right = ~(points[rows, axes] <= self._gather(runs, "split_value")[member])
            child = 2 * member + right
            present = np.bincount(child, minlength=2 * len(frontier)) > 0
            frontier = np.stack([2 * frontier, 2 * frontier + 1], axis=1).ravel()[present]
            member = (np.cumsum(present) - 1)[child]
        return frontier[member]

    def leaf_of_point(self, point: np.ndarray) -> int:
        """Heap index of the (single) leaf whose partition cell holds ``point``."""
        return int(self.leaf_of_points(np.asarray(point)[np.newaxis, :])[0])

    def leaves_containing(self, point: np.ndarray) -> list[int]:
        """All leaves whose *closed* partition cell contains ``point``."""
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

    def __repr__(self) -> str:
        return (
            f"PagedKdTree(namespace={self.namespace!r}, "
            f"levels={self.num_levels}, pages={self.layout.num_pages}, "
            f"cache={self.node_cache_bytes >> 20}MB)"
        )
