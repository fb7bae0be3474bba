"""Byte pins for every clustered kd load: build, merge and shard install.

Each entry point that bulk-loads a kd-clustered table -- the §3.2
sequence of building the tree level by level, tagging each row with its
leaf's post-order id and clustering the table on that id -- must store
exactly the pages this module composes on its own:

* data pages: a reference :class:`~repro.core.kdtree.KdTree` over the
  same rows, the ``kd_leaf`` column written through ``.permutation`` and
  ``.node_rows`` with :func:`~repro.core.kdpaged.post_order_index`, and a
  plain ``create_table(..., clustered_by=("kd_leaf",))`` in a fresh
  in-memory database;
* node pages: :func:`~repro.core.kdpaged.tree_node_pages` of the same
  reference tree, encoded with :class:`~repro.db.pages.PageCodec`.

Every stored page of the loaded table's data and index namespaces is
compared byte for byte.  The entry points are ``KdTreeIndex.build`` (in
memory and on disk), ``merge_table`` after inserts and tombstones, and
``KdPartitioner.plan`` followed by ``build_shard``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, KdPartitioner, KdTreeIndex, build_shard, merge_table
from repro.core.kdpaged import PagedTreeLayout, post_order_index, tree_node_pages
from repro.core.kdtree import KdTree, default_num_levels
from repro.db.pages import PageCodec
from repro.db.storage import index_namespace

DIMS = ["x", "y", "z"]
ROWS_PER_PAGE = 97


def _data(n: int, seed: int, first_oid: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    points = np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0], [0.6, 0.3, 0.9], size=(n - n // 3, 3)),
            rng.normal([3.0, 2.0, 1.0], [0.8, 0.5, 0.3], size=(n // 3, 3)),
        ]
    )
    data = {d: points[:, i].copy() for i, d in enumerate(DIMS)}
    data["oid"] = np.arange(first_oid, first_oid + n, dtype=np.int64)
    data["mag"] = rng.uniform(14.0, 22.0, n).astype(np.float32)
    return data


def _reference(
    columns: dict[str, np.ndarray],
    num_levels: int | None,
    axis_policy: str,
    rows_per_page: int,
) -> tuple[list[bytes], list[bytes], PagedTreeLayout]:
    """Data-page bytes, node-page bytes and layout of one clustered load."""
    points = np.column_stack([np.asarray(columns[d], dtype=np.float64) for d in DIMS])
    tree = KdTree(points, num_levels=num_levels, axis_policy=axis_policy)
    kd_leaf = np.empty(tree.num_points, dtype=np.int64)
    for leaf in range(tree.first_leaf, 2 * tree.first_leaf):
        start, end = tree.node_rows(leaf)
        kd_leaf[tree.permutation[start:end]] = post_order_index(leaf, tree.num_levels) + 1
    table_data = dict(columns)
    table_data["kd_leaf"] = kd_leaf
    ref_db = Database.in_memory(buffer_pages=None)
    ref_db.create_table(
        "ref", table_data, rows_per_page=rows_per_page, clustered_by=("kd_leaf",)
    )
    data_pages = [
        ref_db.storage.read_page_bytes("ref", page_id)
        for page_id in range(ref_db.storage.num_pages("ref"))
    ]
    node_pages = [PageCodec.encode(page) for page in tree_node_pages(tree)]
    return data_pages, node_pages, PagedTreeLayout.for_tree(tree)


def _stored(database, namespace: str) -> list[bytes]:
    storage = database.storage
    return [
        storage.read_page_bytes(namespace, page_id)
        for page_id in range(storage.num_pages(namespace))
    ]


def _assert_load_matches(database, index, reference) -> None:
    data_pages, node_pages, layout = reference
    physical = index.table.physical_name
    stored_data = _stored(database, physical)
    stored_nodes = _stored(database, index_namespace(physical))
    assert len(stored_data) == len(data_pages)
    assert len(stored_nodes) == len(node_pages)
    for page_id, (got, want) in enumerate(zip(stored_data, data_pages)):
        assert got == want, f"data page {page_id} of {physical!r} differs"
    for page_id, (got, want) in enumerate(zip(stored_nodes, node_pages)):
        assert got == want, f"node page {page_id} of {physical!r} differs"
    assert index.tree.layout == layout


class TestBuild:
    @pytest.mark.parametrize(
        "num_levels, axis_policy",
        [(None, "widest"), (7, "cycle")],
    )
    def test_in_memory_build_stores_reference_pages(self, num_levels, axis_policy):
        data = _data(3000, seed=3)
        db = Database.in_memory(buffer_pages=None)
        index = KdTreeIndex.build(
            db,
            "t",
            dict(data),
            DIMS,
            num_levels=num_levels,
            axis_policy=axis_policy,
            rows_per_page=ROWS_PER_PAGE,
        )
        reference = _reference(data, num_levels, axis_policy, ROWS_PER_PAGE)
        _assert_load_matches(db, index, reference)
        assert db.index("t.kdtree") is index

    def test_on_disk_build_stores_reference_pages(self, tmp_path):
        data = _data(2500, seed=5)
        db = Database.on_disk(tmp_path, buffer_pages=64)
        index = KdTreeIndex.build(db, "t", dict(data), DIMS, rows_per_page=ROWS_PER_PAGE)
        reference = _reference(data, None, "widest", ROWS_PER_PAGE)
        _assert_load_matches(db, index, reference)


class TestMerge:
    @pytest.mark.parametrize("on_disk", [False, True])
    def test_merge_after_inserts_and_tombstones_stores_reference_pages(
        self, tmp_path, on_disk
    ):
        data = _data(2400, seed=7)
        db = (
            Database.on_disk(tmp_path, buffer_pages=64)
            if on_disk
            else Database.in_memory(buffer_pages=None)
        )
        KdTreeIndex.build(
            db, "t", dict(data), DIMS, axis_policy="cycle", rows_per_page=ROWS_PER_PAGE
        )
        rng = np.random.default_rng(11)
        next_oid = len(data["oid"])
        for round_ in range(2):
            table = db.table("t")
            fresh = _data(300, seed=20 + round_, first_oid=next_oid)
            next_oid += 300
            table.insert_rows(fresh)
            table.delete_rows(rng.choice(table.num_rows, 150, replace=False))
            snapshot = table.delta_snapshot()

            # The merged row set: live main rows in table order, then the
            # live delta rows in insertion order.
            names = table.column_names
            main = table.read_columns(names)
            alive = np.ones(table.num_rows, dtype=bool)
            alive[snapshot.tombstones] = False
            merged = {
                c: np.concatenate([main[c][alive], snapshot.columns[c]]) for c in names
            }
            old_tree = db.index("t.kdtree").tree
            num_rows = len(merged["oid"])
            levels = min(old_tree.num_levels, int(np.floor(np.log2(num_rows))) + 1)
            reference = _reference(merged, levels, old_tree.axis_policy, ROWS_PER_PAGE)

            report = merge_table(db, "t")
            assert report.merged and report.rows_after == num_rows
            index = db.index("t.kdtree")
            assert index.table.physical_name == f"t@g{round_ + 1}"
            _assert_load_matches(db, index, reference)


class TestShard:
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_plan_then_build_shard_stores_reference_pages(self, num_shards):
        data = _data(3200, seed=13)
        specs = KdPartitioner(num_shards, rows_per_page=ROWS_PER_PAGE).plan(
            "s", dict(data), DIMS
        )
        assert len(specs) == num_shards

        # Compose the router cut independently: the top log2(shards)
        # levels of one tree over all rows, one shard per router leaf.
        points = np.column_stack([data[d] for d in DIMS])
        depth = num_shards.bit_length() - 1
        router = KdTree(points, num_levels=depth + 1)
        shard_levels = max(1, default_num_levels(len(points)) - depth)
        for j, leaf in enumerate(range(router.first_leaf, 2 * router.first_leaf)):
            start, end = router.node_rows(leaf)
            rows = router.permutation[start:end]
            columns = {c: arr[rows] for c, arr in data.items()}
            levels = min(shard_levels, max(1, int(len(rows)).bit_length()))
            reference = _reference(columns, levels, "widest", ROWS_PER_PAGE)

            shard = build_shard(specs[j])
            assert shard.table.name == f"s__shard{j}"
            _assert_load_matches(shard.database, shard.index, reference)
