"""Tests for the kd-tree structure and index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kdpaged import (
    MIN_BLOCK_PAGES,
    PagedKdTree,
    PagedTreeLayout,
    post_order_ids,
    tree_node_pages,
)
from repro.core.kdtree import Clustering, KdTree, KdTreeIndex, default_num_levels, install
from repro.db import Database
from repro.db.fetch import FetchMember
from repro.db.pages import PageCodec
from repro.db.storage import index_namespace
from repro.geometry import Box, Polyhedron
from repro.core import polyhedron_full_scan


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(13)
    return np.vstack(
        [rng.normal(0, 1, (3000, 3)), rng.normal([4, 4, 4], 0.5, (1000, 3))]
    )


@pytest.fixture(scope="module")
def tree(points):
    return KdTree(points, num_levels=6)


def _page_out(tree, nodes_per_page: int, node_cache_bytes: int | None = None):
    """``tree``'s node pages in a fresh in-memory database, served."""
    db = Database.in_memory(buffer_pages=None)
    for page in tree_node_pages(tree, nodes_per_page):
        db.storage.write_page(index_namespace("probe"), page)
    layout = PagedTreeLayout.for_tree(tree, nodes_per_page)
    return PagedKdTree(db, "probe", layout, node_cache_bytes=node_cache_bytes)


@pytest.fixture(scope="module")
def served(tree):
    """The tree that serves ``tree``'s queries: its node pages, paged."""
    return _page_out(tree, 512)


@pytest.fixture(scope="module")
def paged_tree(tree):
    """``tree`` paged 8 nodes to a page, under a node cache that holds one."""
    paged = _page_out(tree, 8, node_cache_bytes=1)
    assert paged.layout.num_pages == 8
    return paged


def _descend(tree, point) -> int:
    """The scalar root-to-leaf walk ``leaf_of_points`` must agree with."""
    node = 1
    while not tree.is_leaf(node):
        axis, value = tree.split_plane(node)
        node = 2 * node if point[axis] <= value else 2 * node + 1
    return node


#: Either free coordinates (the data spans about [-4, 6], so many fall
#: outside the root box) or an internal node whose cut plane to sit on.
_coordinate = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
_probe = st.one_of(
    st.tuples(_coordinate, _coordinate, _coordinate),
    st.integers(min_value=1, max_value=31),
)


def _probe_points(tree, probes) -> np.ndarray:
    points = []
    for probe in probes:
        if isinstance(probe, int):
            axis, value = tree.split_plane(probe)
            point = tree.partition_box(probe).center.copy()
            point[axis] = value
        else:
            point = np.array(probe)
        points.append(point)
    return np.array(points).reshape(-1, tree.dim)


class TestSizing:
    def test_default_levels_follow_sqrt_rule(self):
        # The paper: 270M rows -> 15 levels, 2^14 leaves, ~16K per leaf.
        assert default_num_levels(270_000_000) == 15

    def test_default_levels_small(self):
        assert default_num_levels(1) == 1
        assert default_num_levels(0) == 1

    def test_sqrt_rule_balances_leaf_count_and_size(self):
        n = 65536
        levels = default_num_levels(n)
        leaves = 2 ** (levels - 1)
        per_leaf = n / leaves
        assert 0.5 <= leaves / per_leaf <= 2.0

    def test_too_many_levels_rejected(self, points):
        with pytest.raises(ValueError):
            KdTree(points[:4], num_levels=10)

    def test_bad_axis_policy(self, points):
        with pytest.raises(ValueError):
            KdTree(points, axis_policy="zigzag")

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            KdTree(np.empty((0, 3)))


class TestStructure:
    def test_leaf_count(self, tree):
        assert tree.num_leaves == 32
        assert tree.num_nodes == 63

    def test_balance(self, tree):
        sizes = [tree.leaf_size(leaf) for leaf in range(32, 64)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == tree.num_points

    def test_segments_partition_rows(self, tree):
        # Children split the parent's row range exactly.
        for node in range(1, 32):
            start, end = tree.node_rows(node)
            l_start, l_end = tree.node_rows(2 * node)
            r_start, r_end = tree.node_rows(2 * node + 1)
            assert (start, end) == (l_start, r_end)
            assert l_end == r_start

    def test_permutation_is_a_permutation(self, tree):
        assert np.array_equal(np.sort(tree.permutation), np.arange(tree.num_points))

    def test_split_separates_points(self, tree, served, points):
        for node in (1, 2, 3, 7, 15):
            axis, value = served.split_plane(node)
            l_start, l_end = tree.node_rows(2 * node)
            r_start, r_end = tree.node_rows(2 * node + 1)
            left = points[tree.permutation[l_start:l_end], axis]
            right = points[tree.permutation[r_start:r_end], axis]
            assert left.max() <= value <= right.min()

    def test_split_plane_on_leaf_rejected(self, served):
        with pytest.raises(ValueError):
            served.split_plane(32)

    def test_partition_boxes_tile_root(self, tree, points):
        # Every point lies in its leaf's partition box; leaf boxes' total
        # volume equals the root volume.
        root = tree.partition_box(1)
        volume = sum(tree.partition_box(leaf).volume for leaf in range(32, 64))
        assert np.isclose(volume, root.volume, rtol=1e-9)

    def test_points_in_their_partition_box(self, tree, points):
        for leaf in range(32, 64):
            start, end = tree.node_rows(leaf)
            rows = tree.permutation[start:end]
            assert tree.partition_box(leaf).contains_points(points[rows]).all()

    def test_tight_boxes_contained_in_partition(self, tree):
        for node in range(1, 64):
            if tree.leaf_size(node) == 0:
                continue
            assert tree.partition_box(node).expanded(1e-9).contains_box(
                tree.tight_box(node)
            )

    def test_tight_boxes_nest_upward(self, tree):
        for node in range(1, 32):
            parent = tree.tight_box(node)
            for child in (2 * node, 2 * node + 1):
                if tree.leaf_size(child):
                    assert parent.contains_box(tree.tight_box(child))


class TestPostOrder:
    def test_ids_are_a_permutation(self, served):
        ids = [served.post_order_id(node) for node in range(1, 64)]
        assert sorted(ids) == list(range(1, 64))
        assert post_order_ids(np.arange(1, 64), 6).tolist() == ids

    def test_array_ids_match_a_depth_first_walk(self):
        # The reference: number a perfect heap by an explicit post-order walk.
        for levels in (1, 2, 5, 9):
            expected: dict[int, int] = {}
            stack = [(1, False)]
            while stack:
                node, expanded = stack.pop()
                if node >= 2 ** (levels - 1) or expanded:
                    expected[node] = len(expected) + 1
                else:
                    stack += [(node, True), (2 * node + 1, False), (2 * node, False)]
            nodes = np.arange(1, 2**levels)
            assert post_order_ids(nodes, levels).tolist() == [expected[n] for n in nodes]

    def test_root_is_last(self, served):
        assert served.post_order_id(1) == 63

    def test_subtree_between_property(self, tree, served):
        # Every descendant's id lies in the node's post-order range --
        # the property that makes subtree retrieval a BETWEEN.
        for node in range(1, 64):
            lo, hi = tree.post_order_range(node)
            assert served.post_order_range(node) == (lo, hi)
            descendants = [node]
            frontier = [node]
            while frontier:
                current = frontier.pop()
                if not tree.is_leaf(current):
                    frontier += [2 * current, 2 * current + 1]
                    descendants += [2 * current, 2 * current + 1]
            for d in descendants:
                assert lo <= served.post_order_id(d) <= hi
        assert tree.post_order_range(1) == (1, 63)

    def test_leaf_ids_increase_left_to_right(self, tree):
        # In build order (the clustered table's row order) the kd_leaf
        # column is non-decreasing and takes one value per leaf.
        ids = tree.leaf_ids()[tree.permutation]
        assert (np.diff(ids) >= 0).all()
        assert len(np.unique(ids)) == tree.num_leaves


class TestPointLocation:
    def test_leaf_of_point_contains_it(self, tree, served, points):
        rng = np.random.default_rng(0)
        for idx in rng.choice(tree.num_points, 100, replace=False):
            leaf = served.leaf_of_point(points[idx])
            assert tree.partition_box(leaf).contains_point(points[idx])

    def test_served_point_location_reproduces_leaf_ids(self, tree, served, points):
        # Insert routing tags a row with the leaf the served tree locates
        # it in; for the build's own points that is the build's tag.
        leaves = served.leaf_of_points(points)
        assert np.array_equal(post_order_ids(leaves, tree.num_levels), tree.leaf_ids())

    @settings(max_examples=40, deadline=None)
    @given(probes=st.lists(_probe, max_size=40))
    def test_leaf_of_points_matches_per_point_descent(self, served, probes):
        points = _probe_points(served, probes)
        leaves = served.leaf_of_points(points)
        assert leaves.tolist() == [served.leaf_of_point(p) for p in points]
        assert leaves.tolist() == [_descend(served, p) for p in points]

    @settings(max_examples=40, deadline=None)
    @given(probes=st.lists(_probe, max_size=40))
    def test_paged_leaf_of_points_matches_under_one_page_cache(
        self, served, paged_tree, probes
    ):
        points = _probe_points(served, probes)
        leaves = paged_tree.leaf_of_points(points)
        assert leaves.tolist() == [paged_tree.leaf_of_point(p) for p in points]
        assert leaves.tolist() == [_descend(served, p) for p in points]
        assert len(paged_tree._node_cache) <= 1

    def test_leaves_containing_interior_point_is_single(self, served):
        point = served.partition_box(40).center
        leaves = served.leaves_containing(point)
        assert leaves == [served.leaf_of_point(point)]

    def test_leaves_containing_cut_plane_point(self, served):
        axis, value = served.split_plane(1)
        point = served.partition_box(1).center.copy()
        point[axis] = value
        leaves = served.leaves_containing(point)
        assert len(leaves) >= 2
        for leaf in leaves:
            assert served.partition_box(leaf).contains_point(point)

    def test_leaf_statistics_keys(self, tree):
        stats = tree.leaf_statistics()
        assert stats["num_leaves"] == 32
        assert stats["mean_leaf_size"] * 32 == tree.num_points


class TestKdTreeIndex:
    @pytest.fixture(scope="class")
    def index(self, points):
        db = Database.in_memory(buffer_pages=None)
        data = {"x": points[:, 0], "y": points[:, 1], "z": points[:, 2]}
        return KdTreeIndex.build(db, "kd", data, ["x", "y", "z"], num_levels=6)

    def test_registered_in_catalog(self, index):
        assert index.table.clustered_by == ("kd_leaf",)

    def test_rows_clustered_by_leaf(self, index):
        leaf_col = index.table.read_column("kd_leaf")
        assert (np.diff(leaf_col) >= 0).all()

    def test_leaf_ranges_address_clustered_table(self, index, tree, points):
        # ``tree`` is the same build over the same points: its
        # permutation names the rows the served ranges must address.
        for leaf in (32, 45, 63):
            start, end = index.tree.node_rows(leaf)
            assert (start, end) == tree.node_rows(leaf)
            rows = index.table.read_rows(start, end)
            got = np.column_stack([rows["x"], rows["y"], rows["z"]])
            expected = points[tree.permutation[start:end]]
            assert sorted(map(tuple, np.round(got, 9))) == sorted(
                map(tuple, np.round(expected, 9))
            )

    def test_box_query_matches_scan(self, index, points):
        box = Box(np.array([-0.5, -0.5, -0.5]), np.array([0.7, 0.7, 0.7]))
        rows, stats = index.query_box(box)
        expected = int(box.contains_points(points).sum())
        assert stats.rows_returned == expected
        pts = index.points_of(rows)
        assert box.contains_points(pts).all()

    def test_polyhedron_query_matches_scan(self, index, points):
        poly = Polyhedron.simplex_around(np.array([0.0, 0.0, 0.0]), 1.0)
        rows, stats = index.query_polyhedron(poly)
        _, scan_stats = polyhedron_full_scan(index.table, index.dims, poly)
        assert stats.rows_returned == scan_stats.rows_returned

    def test_partition_boxes_also_correct(self, index, points):
        poly = Polyhedron.simplex_around(np.array([4.0, 4.0, 4.0]), 1.0)
        rows_tight, s_tight = index.query_polyhedron(poly, use_tight_boxes=True)
        rows_part, s_part = index.query_polyhedron(poly, use_tight_boxes=False)
        assert s_tight.rows_returned == s_part.rows_returned
        # Tight boxes never touch more pages than partition boxes.
        assert s_tight.pages_touched <= s_part.pages_touched

    def test_inside_subtrees_skip_point_filter(self, index, points):
        # A huge box covers the root: one INSIDE cell, zero partial.
        box = Box.from_points(points, pad=1.0)
        _, stats = index.query_box(box)
        assert stats.cells_inside == 1
        assert stats.cells_partial == 0
        assert stats.rows_returned == len(points)

    def test_disjoint_query_returns_nothing(self, index):
        box = Box(np.full(3, 100.0), np.full(3, 101.0))
        rows, stats = index.query_box(box)
        assert stats.rows_returned == 0
        assert stats.pages_touched == 0

    def test_dim_mismatch_rejected(self, index):
        with pytest.raises(ValueError):
            index.query_polyhedron(Polyhedron.from_box(Box.unit(2)))

    def test_selective_query_reads_fewer_pages(self, index, points):
        box = Box.cube(np.array([4.0, 4.0, 4.0]), 0.3)
        _, stats = index.query_box(box)
        assert 0 < stats.rows_returned < len(points) * 0.1
        assert stats.pages_touched < index.table.num_pages / 2


class TestLevelWalkUnderSmallCache:
    """A tree many times its node cache: the level walk goes run by run.

    256 node pages of 16 nodes under caches of 40 pages and of all of
    them.  Runs must change nothing the walk returns, and must keep each
    node page decoded about once per walk instead of once per level.
    """

    DIMS = ["x", "y", "z"]
    NODES_PER_PAGE = 16
    PAGE_BYTES = NODES_PER_PAGE * 8 * (5 + 4 * 3)

    @pytest.fixture(scope="class")
    def deep(self, points):
        tree = KdTree(points, num_levels=12)
        db = Database.in_memory(buffer_pages=None)
        layout = PagedTreeLayout.for_tree(tree, self.NODES_PER_PAGE)
        clustering = Clustering(
            kd_leaf=tree.leaf_ids(),
            node_pages=tuple(
                PageCodec.encode(page) for page in tree_node_pages(tree, self.NODES_PER_PAGE)
            ),
            layout=layout,
        )
        columns = {d: points[:, i].copy() for i, d in enumerate(self.DIMS)}
        index, _ = install(db, "deep", columns, self.DIMS, clustering)
        assert layout.num_pages == 256

        def arm(pages: int) -> KdTreeIndex:
            paged = PagedKdTree(
                db, index.table.physical_name, layout, node_cache_bytes=pages * self.PAGE_BYTES
            )
            return KdTreeIndex(db, index.table, paged, self.DIMS)

        return db, arm(40), arm(layout.num_pages)

    def test_runs_cover_the_frontier_and_fit_the_cache(self, deep):
        _, small, _ = deep
        tree = small.tree
        fits = 40
        assert fits > MIN_BLOCK_PAGES
        cut = False
        for depth in range(tree.num_levels):
            nodes = np.arange(1 << depth, 2 << depth)
            runs = tree.frontier_blocks(nodes, depth)
            assert np.array_equal(np.concatenate([nodes[run] for run in runs]), nodes)
            if len(runs) > 1:
                cut = True
                size = (1 << (tree.num_levels - depth)) - 1
                for run in runs:
                    post = np.array([tree.post_order_id(n) - 1 for n in nodes[run]])
                    first = (post[0] - size + 1) // self.NODES_PER_PAGE
                    assert post[-1] // self.NODES_PER_PAGE - first < fits
        assert cut

    def test_walk_matches_the_resident_tree_and_decodes_each_page_about_once(self, deep):
        db, small, resident = deep
        rng = np.random.default_rng(41)

        def walk(index, polyhedra):
            index.tree.drop_node_cache()
            db.buffer_pool.invalidate(index.tree.namespace)
            before = db.io_stats.index_pages_decoded
            members = [FetchMember(polyhedron=p, dims=self.DIMS) for p in polyhedra]
            ranges = index.traverse(members)
            counts = [
                (m.stats.nodes_visited, m.stats.cells_inside, m.stats.cells_partial)
                for m in members
            ]
            return ranges, counts, db.io_stats.index_pages_decoded - before

        decoded = {"small": 0, "resident": 0}
        for _ in range(12):
            polyhedra = []
            for _ in range(int(rng.integers(1, 4))):
                center = rng.normal(0.0, 1.5, 3)
                half = rng.uniform(0.3, 2.0, 3)
                polyhedra.append(Polyhedron.from_box(Box(center - half, center + half)))
            got_ranges, got_counts, got_decoded = walk(small, polyhedra)
            want_ranges, want_counts, want_decoded = walk(resident, polyhedra)
            assert got_ranges == want_ranges
            assert got_counts == want_counts
            decoded["small"] += got_decoded
            decoded["resident"] += want_decoded
        # The resident arm decodes each page it touches once.
        assert decoded["small"] <= 1.2 * decoded["resident"]

    def test_member_is_not_polled_after_its_check_raised(self, deep):
        _, small, _ = deep

        class RaiseOnce:
            def __init__(self, poll: int):
                self.poll, self.calls = poll, 0

            def __call__(self):
                self.calls += 1
                if self.calls == self.poll:
                    raise TimeoutError("deadline")

        whole = Polyhedron.from_box(Box(np.full(3, -0.5), np.full(3, 3.5)))
        for poll in (1, 3, 8, 12):
            check = RaiseOnce(poll)
            members = [
                FetchMember(polyhedron=whole, dims=self.DIMS, cancel_check=check),
                FetchMember(polyhedron=whole, dims=self.DIMS),
            ]
            ranges = small.traverse(members)
            assert isinstance(members[0].error, TimeoutError)
            assert check.calls == poll
            alone = FetchMember(polyhedron=whole, dims=self.DIMS)
            assert [r[1:] for r in ranges if r[0] == 1] == [r[1:] for r in small.traverse([alone])]
