"""Kd-subtree partitioning: one table cut into spatially coherent shards.

The paper's post-order numbering (§3.2) makes every kd-subtree's leaves
a contiguous id range -- which is a *partitioning function*: cutting the
tree at depth ``log2(N)`` splits the table into N disjoint, spatially
coherent shards, each retrievable with one ``BETWEEN`` over the
post-order ids.  :class:`KdPartitioner` materializes exactly that: it
builds a shallow *router tree* (the top levels of the paper's kd-tree)
over the coordinates, and turns each router leaf into a :class:`Shard`
with its own :class:`~repro.db.catalog.Database` (hence its own
:class:`~repro.db.buffer_pool.BufferPool` and storage backend) and a
locally loaded :class:`~repro.core.kdtree.KdTreeIndex` over just that
shard's rows: the parent runs the clustered loader's pure half
(:func:`~repro.core.kdtree.cluster`) and the shard's worker its storage
half (:func:`~repro.core.kdtree.install`).

Because every shard is a kd-subtree, the router leaf's *partition box*
tiles space with its siblings and bounds every row the shard holds --
the property the :class:`~repro.shard.router.ShardRouter` exploits to
prune whole shards against a query polyhedron before a single page is
touched (the Figure 4 inside/partial/outside logic lifted to shard
granularity).

Global row ids: shard-local ``_row_id``s are offset by the shard's
cumulative start (:attr:`Shard.row_offset`), so a scatter-gather merge
hands back globally unique, stable ids; :meth:`ShardSet.gather` routes
them back to the owning shard.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.bitmap.index import DEFAULT_BITMAP_BINS
from repro.core.index_base import stack_coordinates
from repro.core.kdtree import (
    Clustering,
    KdTree,
    KdTreeIndex,
    cluster,
    default_num_levels,
    install,
)
from repro.db.catalog import Database, DatabaseOptions
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.geometry.boxes import Box
from repro.ingest.delta import DELTA_BASE, SHARD_STRIDE

__all__ = [
    "KdPartitioner",
    "Shard",
    "ShardSet",
    "ShardSpec",
    "build_shard",
    "shard_layout_version",
    "to_global_ids",
    "to_local_ids",
]


def shard_layout_version(name: str, dims: list[str], shard_sizes: list[int]) -> str:
    """Digest of a shard layout (count, sizes, base name, dims).

    :class:`ShardSet` computes it from sizes alone, so the same
    partitioning plan yields the same cache-fingerprint version
    whichever transport executes it.
    """
    digest = hashlib.sha1()
    digest.update(f"{name}|{','.join(dims)}|{len(shard_sizes)}".encode())
    digest.update(np.array(shard_sizes, dtype=np.int64).tobytes())
    return f"kd{len(shard_sizes)}:{digest.hexdigest()[:12]}"


def to_global_ids(shard, local_ids: np.ndarray) -> np.ndarray:
    """A shard's local row ids in the global namespace.

    Main-band ids shift by the shard's row offset; delta-band ids
    (pending inserts) move into the shard's slice of the global delta
    namespace instead.  ``shard`` is a :class:`Shard` or a
    :class:`ShardSpec`.
    """
    return np.where(
        local_ids >= DELTA_BASE,
        local_ids + shard.shard_id * SHARD_STRIDE,
        local_ids + shard.row_offset,
    )


def to_local_ids(shard, global_ids: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_global_ids` for ids the shard owns."""
    return np.where(
        global_ids >= DELTA_BASE,
        global_ids - shard.shard_id * SHARD_STRIDE,
        global_ids - shard.row_offset,
    )


@dataclass
class ShardSpec:
    """A picklable recipe for one shard: data, clustering, geometry, options.

    Everything a worker -- a thread in this process or a forked/spawned
    *worker process* -- needs to load the shard's private
    :class:`~repro.db.catalog.Database`: the shard's column arrays, the
    :class:`~repro.core.kdtree.Clustering` the parent computed for them
    (so the worker installs page blobs instead of re-running the
    median-split build, and spawn/respawn cost stops scaling with index
    depth), its kd geometry (partition and tight boxes, post-order
    range), its global row offset, and the database open options
    (including, for fault drills, the parent's seeded
    :class:`~repro.db.faults.FaultInjector`, which pickles with its RNG
    state so the worker reproduces the configured fault sequence).
    """

    shard_id: int
    #: The shard's table name (``<base_name>__shard<j>``).
    name: str
    base_name: str
    dims: list[str]
    columns: dict[str, np.ndarray]
    rows_per_page: int
    row_offset: int
    num_rows: int
    post_order_range: tuple[int, int]
    partition_box: Box
    tight_box: Box
    #: :func:`~repro.core.kdtree.cluster` of ``columns``; re-cluster
    #: whenever the columns change.
    clustering: Clustering
    options: DatabaseOptions = field(default_factory=DatabaseOptions)
    #: Bins per column of the shard's bitmap index; 0 disables it.
    bitmap_bins: int = DEFAULT_BITMAP_BINS

    def column_dtypes(self) -> dict[str, np.dtype]:
        """Result-schema dtypes (what a gather/merge must produce)."""
        return {name: arr.dtype for name, arr in self.columns.items()}


def build_shard(
    spec: ShardSpec, database_factory: Callable[[int], Database] | None = None
) -> Shard:
    """Materialize one shard -- database, table, kd-tree -- from its spec.

    This is the worker-side half of partitioning: the parent computes
    specs once (:meth:`KdPartitioner.plan`) and each worker, wherever it
    runs, installs the spec's clustering into its own engine stack.  A
    write fault raises (see :func:`~repro.core.kdtree.install`).
    """
    if database_factory is not None:
        shard_db = database_factory(spec.shard_id)
    else:
        shard_db = spec.options.open()
    index, _ = install(
        shard_db,
        spec.name,
        spec.columns,
        spec.dims,
        spec.clustering,
        rows_per_page=spec.rows_per_page,
        bitmap_bins=spec.bitmap_bins,
    )
    return Shard(
        shard_id=spec.shard_id,
        database=shard_db,
        index=index,
        partition_box=spec.partition_box,
        tight_box=spec.tight_box,
        row_offset=spec.row_offset,
        num_rows=spec.num_rows,
        post_order_range=spec.post_order_range,
    )


@dataclass
class Shard:
    """One kd-subtree's worth of rows with its own engine stack."""

    shard_id: int
    database: Database
    index: KdTreeIndex
    #: The router leaf's space-tiling cell (bounds every row in the shard).
    partition_box: Box
    #: Bounding box of the shard's actual rows (tighter pruning).
    tight_box: Box
    #: Global row id of this shard's first row.
    row_offset: int
    num_rows: int
    #: Inclusive post-order id range of the router subtree (the BETWEEN).
    post_order_range: tuple[int, int]

    @property
    def table(self) -> Table:
        """The shard's locally clustered data table."""
        return self.index.table

    def write_state(self) -> tuple[str, float]:
        """``(layout_version, delta_fraction)`` -- what a coordinator
        tracks per shard after every write it routes here."""
        return self.table.layout_version, self.database.ingest.delta_fraction(
            self.table.name
        )

    def merge(self):
        """Drain the delta out-of-place, then re-resolve the index and
        routing geometry the merge replaced; returns the merge report."""
        name = self.table.name
        report = self.database.ingest.merge(name)
        index = self.database.index_if_exists(f"{name}.kdtree")
        if index is not None:
            self.index = index
        self.num_rows = self.table.num_rows
        self.tight_box = self.index.tree.tight_box(1)
        return report


class ShardSet:
    """The output of partitioning: ordered shards plus the layout identity.

    ``layout_version`` digests the shard boundaries (count, sizes, base
    name, dims); any repartitioning -- a different shard count or a
    rebuild over different data -- yields a different version, which the
    result cache folds into its fingerprints.

    The members are built shards (:class:`Shard`) or, for a process pool
    whose shards run elsewhere, their specs (:class:`ShardSpec`): offsets,
    ownership and the layout digest read only the geometry both carry
    (:meth:`gather` needs built shards).  ``root_box`` defaults to the
    union of the partition cells.
    """

    def __init__(
        self, name: str, dims: list[str], shards: list, root_box: Box | None = None
    ):
        if not shards:
            raise ValueError("a shard set needs at least one shard")
        self.name = name
        self.dims = list(dims)
        self.shards = list(shards)
        if root_box is None:
            root_box = Box(
                np.min([s.partition_box.lo for s in shards], axis=0),
                np.max([s.partition_box.hi for s in shards], axis=0),
            )
        self.root_box = root_box
        self._offsets = np.array([s.row_offset for s in shards], dtype=np.int64)
        self.layout_version = shard_layout_version(
            name, self.dims, [s.num_rows for s in shards]
        )

    def refresh(self) -> str:
        """Recompute offsets and the layout digest after shard merges.

        A shard-local merge changes that shard's row count (tombstones
        dropped, delta folded in), which shifts every later shard's
        global id range and therefore the layout identity.  Called by
        the coordinator after it merges/repartitions shards; returns the
        new ``layout_version``.
        """
        offset = 0
        for shard in self.shards:
            shard.row_offset = offset
            offset += shard.num_rows
        self._offsets = np.array([s.row_offset for s in self.shards], dtype=np.int64)
        self.layout_version = shard_layout_version(
            self.name, self.dims, [s.num_rows for s in self.shards]
        )
        return self.layout_version

    def owner_of_rows(self, global_row_ids: np.ndarray) -> np.ndarray:
        """Shard id owning each global row id, main band or delta band.

        Raises :class:`IndexError` for a main-band id outside
        ``[0, total_rows)`` or a delta-band id in no shard's slice.
        """
        ids = np.asarray(global_row_ids, dtype=np.int64)
        in_delta = ids >= DELTA_BASE
        main = ids[~in_delta]
        if len(main) and (main.min() < 0 or main.max() >= self.total_rows):
            raise IndexError(f"row ids out of range [0, {self.total_rows})")
        owners = np.empty(len(ids), dtype=np.int64)
        owners[~in_delta] = np.searchsorted(self._offsets, main, side="right") - 1
        owners[in_delta] = (ids[in_delta] - DELTA_BASE) // SHARD_STRIDE
        if in_delta.any() and owners[in_delta].max() >= len(self.shards):
            raise IndexError("delta row ids out of range")
        return owners

    @property
    def num_shards(self) -> int:
        """How many shards the table was cut into."""
        return len(self.shards)

    @property
    def total_rows(self) -> int:
        """Rows across all shards (the original table's row count)."""
        return int(sum(s.num_rows for s in self.shards))

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def __getitem__(self, shard_id: int) -> Shard:
        return self.shards[shard_id]

    def shard_of_row(self, global_row_id: int) -> Shard:
        """The shard owning a global row id."""
        if not (0 <= global_row_id < self.total_rows):
            raise IndexError(
                f"row {global_row_id} out of range [0, {self.total_rows})"
            )
        pos = int(np.searchsorted(self._offsets, global_row_id, side="right")) - 1
        return self.shards[pos]

    def gather(self, global_row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Fetch arbitrary rows by global id, in the given order.

        Ids are grouped by owning shard, fetched through each shard's
        buffer pool, and reassembled in input order with the ``_row_id``
        column remapped back to the global namespace.
        """
        global_row_ids = np.asarray(global_row_ids, dtype=np.int64)
        columns = self.shards[0].table.column_names
        if global_row_ids.size == 0:
            out = {
                n: np.empty(0, dtype=self.shards[0].table.dtype_of(n))
                for n in columns
            }
            out["_row_id"] = np.empty(0, dtype=np.int64)
            return out
        owners = self.owner_of_rows(global_row_ids)
        out: dict[str, np.ndarray] = {}
        for shard_id in np.unique(owners):
            shard = self.shards[int(shard_id)]
            where = np.flatnonzero(owners == shard_id)
            ids = to_local_ids(shard, global_row_ids[where])
            delta_here = ids >= DELTA_BASE
            pieces: dict[str, np.ndarray] = {}
            if (~delta_here).any():
                local = shard.table.gather(ids[~delta_here])
                for name in columns:
                    pieces[name] = local[name]
            if delta_here.any():
                snapshot = shard.table.delta_snapshot()
                local_delta = ids[delta_here]
                if snapshot is None:
                    raise IndexError("delta row ids reference no pending delta")
                pos = np.searchsorted(snapshot.row_ids, local_delta)
                if (
                    pos.max(initial=-1) >= len(snapshot.row_ids)
                    or not np.array_equal(snapshot.row_ids[pos], local_delta)
                ):
                    raise IndexError("delta row ids not found (merged or deleted)")
                for name in columns:
                    arr = snapshot.columns[name][pos]
                    if name in pieces:
                        pieces[name] = np.concatenate([pieces[name], arr])
                    else:
                        pieces[name] = arr
            # Reassemble in input order: main rows first, then delta rows,
            # matching the concatenation order above.
            order = np.concatenate(
                [np.flatnonzero(~delta_here), np.flatnonzero(delta_here)]
            )
            for name, arr in pieces.items():
                if name not in out:
                    out[name] = np.empty(len(global_row_ids), dtype=arr.dtype)
                out[name][where[order]] = arr
        out["_row_id"] = global_row_ids.copy()
        return out


class KdPartitioner:
    """Cuts a table into ``num_shards`` kd-subtree shards.

    Parameters
    ----------
    num_shards:
        Must be a power of two: shards are the leaves of a perfect
        binary router tree of depth ``log2(num_shards)``.
    axis_policy:
        Split-axis rule of the router tree and every per-shard tree
        (``"widest"`` or ``"cycle"``, as in :class:`~repro.core.kdtree.KdTree`).
    buffer_pages:
        Buffer-pool capacity of each shard's private database (``None``
        for unbounded); ignored when ``database_factory`` is given.
    database_factory:
        ``factory(shard_id) -> Database`` for custom per-shard backends
        -- the fault tests wrap individual shards in
        :class:`~repro.db.faults.FaultyStorage` through this hook.
    shard_levels:
        Per-shard kd-tree depth.  ``None`` (the default) sizes each
        shard tree as the *continuation of one global tree*: the paper's
        √N rule applied to the whole table, minus the router levels.
        The union of shard leaves then reproduces the unsharded index's
        leaf geometry exactly -- same leaf count, same leaf size -- so
        sharding changes where the work runs, not how much leaf-level
        work there is.  (Applying √N to each shard's own row count would
        yield √num_shards times more, smaller leaves and a corresponding
        per-query overhead.)
    index_cache_bytes:
        Decoded node-cache byte budget of each shard's paged kd-tree
        (``None`` keeps the database default); ignored when explicit
        ``options`` are passed to :meth:`plan`.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        axis_policy: str = "widest",
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        buffer_pages: int | None = None,
        database_factory: Callable[[int], Database] | None = None,
        shard_levels: int | None = None,
        index_cache_bytes: int | None = None,
    ):
        if num_shards < 1 or (num_shards & (num_shards - 1)) != 0:
            raise ValueError(
                f"num_shards must be a power of two (got {num_shards}): "
                "shards are the leaves of a perfect kd router tree"
            )
        self.num_shards = num_shards
        self.axis_policy = axis_policy
        self.rows_per_page = rows_per_page
        self.buffer_pages = buffer_pages
        self.database_factory = database_factory
        self.shard_levels = shard_levels
        self.index_cache_bytes = index_cache_bytes

    def plan(
        self,
        name: str,
        data: dict[str, np.ndarray],
        dims: list[str],
        *,
        options: DatabaseOptions | None = None,
        shard_options: dict[int, DatabaseOptions] | None = None,
        bitmap_bins: int = DEFAULT_BITMAP_BINS,
    ) -> list[ShardSpec]:
        """Compute the partitioning plan without building any database.

        Returns one picklable :class:`ShardSpec` per shard, ordered
        left-to-right in router-leaf order (ascending post-order range).
        ``options`` is the database configuration every shard opens with
        (default: in-memory with this partitioner's ``buffer_pages``);
        ``shard_options`` overrides it per shard id (how fault drills
        give one worker a seeded injector).  The specs feed either
        :func:`build_shard` (thread transport, this process) or a
        :class:`~repro.net.pool.ShardWorkerPool` (process transport).
        Each spec carries its shard's :func:`~repro.core.kdtree.cluster`
        output, so workers -- and every later respawn of a dead worker
        -- skip the median-split build.
        """
        points = stack_coordinates(data, list(dims))
        if len(points) < self.num_shards:
            raise ValueError(
                f"{self.num_shards} shards need >= {self.num_shards} rows "
                f"(got {len(points)})"
            )
        if options is None:
            if self.index_cache_bytes is not None:
                options = DatabaseOptions(
                    buffer_pages=self.buffer_pages,
                    index_cache_bytes=self.index_cache_bytes,
                )
            else:
                options = DatabaseOptions(buffer_pages=self.buffer_pages)
        depth = self.num_shards.bit_length() - 1
        router_tree = KdTree(
            points, num_levels=depth + 1, axis_policy=self.axis_policy
        )
        shard_levels = self.shard_levels
        if shard_levels is None:
            shard_levels = max(1, default_num_levels(len(points)) - depth)
        arrays = {c: np.asarray(arr) for c, arr in data.items()}
        specs: list[ShardSpec] = []
        offset = 0
        for j, leaf in enumerate(
            range(router_tree.first_leaf, 2 * router_tree.first_leaf)
        ):
            start, end = router_tree.node_rows(leaf)
            rows = router_tree.permutation[start:end]
            columns = {c: arr[rows] for c, arr in arrays.items()}
            specs.append(
                ShardSpec(
                    shard_id=j,
                    name=f"{name}__shard{j}",
                    base_name=name,
                    dims=list(dims),
                    columns=columns,
                    rows_per_page=self.rows_per_page,
                    row_offset=offset,
                    num_rows=len(rows),
                    post_order_range=router_tree.post_order_range(leaf),
                    partition_box=router_tree.partition_box(leaf),
                    tight_box=router_tree.tight_box(leaf),
                    clustering=cluster(
                        columns,
                        dims,
                        levels=min(shard_levels, max(1, int(len(rows)).bit_length())),
                        axis_policy=self.axis_policy,
                    ),
                    options=(shard_options or {}).get(j, options),
                    bitmap_bins=bitmap_bins,
                )
            )
            offset += len(rows)
        return specs

    def partition(
        self, name: str, data: dict[str, np.ndarray], dims: list[str]
    ) -> ShardSet:
        """Cut ``data`` into shards and build every per-shard index.

        Shard ``j``'s table is named ``<name>__shard<j>`` inside its own
        database; shards are ordered left-to-right in router-leaf order,
        i.e. by ascending post-order id range.
        """
        specs = self.plan(name, data, dims)
        shards = [build_shard(spec, self.database_factory) for spec in specs]
        return ShardSet(name, list(dims), shards)
