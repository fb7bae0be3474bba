"""The kd walk's contract, pinned against the per-node depth-first walk.

:meth:`~repro.core.kdtree.KdTreeIndex.traverse` classifies tree nodes
against a member set (Figure 4) and names each member's clustered row
ranges.  ``_reference_traverse`` below is that walk written one node and
one member at a time: a right-first depth-first stack over
``visit_info`` and ``classify_box``.  Every case runs both on fresh
members and requires the same range list -- order included, since the
fetch kernel reads in that order -- and the same per-member
``nodes_visited`` / ``cells_outside`` / ``cells_inside`` /
``cells_partial`` counts.

The axes: random boxes and oblique polyhedra, batches of one to eight
members with mixed face counts, tight and partition boxes, a tree with
more levels than its rows fill (empty nodes, non-finite tight boxes),
a whole-space and an empty query, and a member whose cancel check
raises mid-walk.

Insert routing is pinned the same way: ``leaf_of_points`` against the
per-frontier-node descent, points on split planes included (ties go
left).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Box, Database, KdTreeIndex, Polyhedron
from repro.core.kdpaged import PagedTreeLayout, post_order_ids, tree_node_pages
from repro.core.kdtree import Clustering, KdTree, install
from repro.db.fetch import FetchMember
from repro.db.pages import PageCodec
from repro.geometry.boxes import BoxRelation
from repro.geometry.halfspace import Halfspace

DIMS = ["x", "y", "z", "w"]
NUM_ROWS = 2000
#: 9 levels = 511 nodes = 16 node pages at 32 nodes a page, under a
#: node cache that holds about half of them: walks cross pages and evict.
NUM_LEVELS = 9
NODES_PER_PAGE = 32
SMALL_CACHE = 1 << 16


def _reference_traverse(index, members, use_tight_boxes=True):
    """The per-node walk: one ``visit_info`` and ``classify_box`` per node and member."""
    tree = index.tree
    ranges = []
    stack = [(1, tuple(range(len(members))))]
    while stack:
        node, active = stack.pop()
        live = []
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
        deeper = []
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


def _reference_leaf_of_points(tree, points):
    """Insert routing one node-cache probe per distinct frontier node."""
    points = np.asarray(points, dtype=np.float64)
    rows = np.arange(len(points))
    nodes = np.ones(len(points), dtype=np.int64)
    for _ in range(tree.num_levels - 1):
        frontier, member = np.unique(nodes, return_inverse=True)
        axes = np.empty(len(frontier), dtype=np.int64)
        values = np.empty(len(frontier))
        for i, node in enumerate(frontier.tolist()):
            axes[i], values[i] = tree.split_plane(node)
        left = points[rows, axes[member]] <= values[member]
        nodes = 2 * nodes + ~left
    return nodes


def _points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = n // 2
    return np.vstack(
        [
            rng.normal([0.0, 0.0, 0.0, 0.0], [0.5, 0.3, 0.7, 1.0], size=(half, 4)),
            rng.normal([3.0, 2.0, 1.0, -1.0], [0.9, 0.6, 0.4, 0.5], size=(n - half, 4)),
        ]
    )


def _columns(points: np.ndarray) -> dict[str, np.ndarray]:
    columns = {d: points[:, i].copy() for i, d in enumerate(DIMS)}
    columns["oid"] = np.arange(len(points), dtype=np.int64)
    return columns


def _serve(name: str, tree: KdTree, columns: dict) -> KdTreeIndex:
    """``tree`` behind a clustered table, paged ``NODES_PER_PAGE`` nodes a page."""
    db = Database.in_memory(buffer_pages=None, index_cache_bytes=SMALL_CACHE)
    clustering = Clustering(
        kd_leaf=tree.leaf_ids(),
        node_pages=tuple(
            PageCodec.encode(page) for page in tree_node_pages(tree, NODES_PER_PAGE)
        ),
        layout=PagedTreeLayout.for_tree(tree, NODES_PER_PAGE),
    )
    index, _ = install(db, name, columns, DIMS, clustering)
    return index


def _overfull_tree(points: np.ndarray, num_levels: int) -> KdTree:
    """A :class:`KdTree` with more levels than its rows fill.

    The constructor refuses ``2**(levels-1) > rows``; the build steps
    themselves handle empty segments, so this runs them directly.
    """
    tree = KdTree.__new__(KdTree)
    tree.num_points, tree.dim = points.shape
    tree.num_levels = num_levels
    tree.axis_policy = "widest"
    (
        tree.permutation,
        tree._split_axis,
        tree._split_value,
        tree._seg_start,
        tree._seg_end,
    ) = tree._build(points)
    tree._partition_lo, tree._partition_hi = tree._partition_boxes(points)
    tree._tight_lo, tree._tight_hi = tree._tight_boxes(points)
    tree._post_order = np.zeros(tree.num_nodes + 1, dtype=np.int64)
    tree._post_order[1:] = post_order_ids(np.arange(1, tree.num_nodes + 1), num_levels)
    return tree


@pytest.fixture(scope="module")
def index() -> KdTreeIndex:
    points = _points(NUM_ROWS, seed=21)
    tree = KdTree(points, num_levels=NUM_LEVELS)
    return _serve("walk", tree, _columns(points))


@pytest.fixture(scope="module")
def overfull() -> KdTreeIndex:
    # 40 rows under 9 levels (256 leaves): most leaves and many inner
    # nodes are empty, and their tight boxes are infinite.
    points = _points(40, seed=22)
    tree = _overfull_tree(points, 9)
    sizes = tree._seg_end[1:] - tree._seg_start[1:]
    assert (sizes == 0).sum() > 100
    assert not np.isfinite(tree._tight_lo[1:]).all()
    return _serve("overfull", tree, _columns(points))


def _random_box(rng) -> Polyhedron:
    center = rng.uniform([-1.5, -1.0, -2.0, -3.0], [4.5, 3.0, 2.5, 2.0])
    half = rng.uniform(0.05, 2.5, size=4)
    return Polyhedron.from_box(Box(center - half, center + half))


def _random_oblique(rng) -> Polyhedron:
    center = rng.uniform([-1.0, -0.5, -1.0, -2.0], [4.0, 2.5, 2.0, 1.0])
    faces = int(rng.integers(1, 7))
    halfspaces = []
    for _ in range(faces):
        normal = rng.normal(size=4)
        normal /= np.linalg.norm(normal)
        halfspaces.append(Halfspace(normal, float(normal @ center) + rng.uniform(0.1, 2.0)))
    return Polyhedron(halfspaces)


def _random_query(rng) -> Polyhedron:
    return _random_box(rng) if rng.random() < 0.5 else _random_oblique(rng)


def _members(polyhedra, checks=None) -> list[FetchMember]:
    checks = checks if checks is not None else [None] * len(polyhedra)
    return [
        FetchMember(polyhedron=p, dims=DIMS, cancel_check=c) for p, c in zip(polyhedra, checks)
    ]


def _counts(member: FetchMember) -> tuple[int, int, int, int]:
    s = member.stats
    return s.nodes_visited, s.cells_outside, s.cells_inside, s.cells_partial


def _assert_same_walk(index, polyhedra, use_tight_boxes=True):
    got_members = _members(polyhedra)
    want_members = _members(polyhedra)
    got = index.traverse(got_members, use_tight_boxes)
    want = _reference_traverse(index, want_members, use_tight_boxes)
    assert got == want
    assert [_counts(m) for m in got_members] == [_counts(m) for m in want_members]
    return got, got_members


@pytest.mark.parametrize("use_tight_boxes", [True, False], ids=["tight", "partition"])
@pytest.mark.parametrize("seed", range(4))
def test_solo_boxes_and_oblique_polyhedra(index, seed, use_tight_boxes):
    rng = np.random.default_rng(100 + seed)
    for make in (_random_box, _random_oblique):
        for _ in range(6):
            _assert_same_walk(index, [make(rng)], use_tight_boxes)


@pytest.mark.parametrize("use_tight_boxes", [True, False], ids=["tight", "partition"])
@pytest.mark.parametrize("size", range(1, 9))
def test_batches_of_mixed_face_counts(index, size, use_tight_boxes):
    rng = np.random.default_rng(200 + size)
    for _ in range(3):
        _assert_same_walk(index, [_random_query(rng) for _ in range(size)], use_tight_boxes)


def test_batch_members_share_nodes(index):
    # Overlapping members resolving at the same nodes: the walk names
    # them together, in member order.
    box = Polyhedron.from_box(Box(np.full(4, -0.5), np.full(4, 0.8)))
    ranges, _ = _assert_same_walk(index, [box, box, box])
    assert {m for m, *_ in ranges} == {0, 1, 2}


@pytest.mark.parametrize("use_tight_boxes", [True, False], ids=["tight", "partition"])
def test_tree_with_empty_nodes(overfull, use_tight_boxes):
    rng = np.random.default_rng(300)
    for _ in range(12):
        size = int(rng.integers(1, 5))
        _assert_same_walk(overfull, [_random_query(rng) for _ in range(size)], use_tight_boxes)
    ranges, members = _assert_same_walk(overfull, [_whole_space()], use_tight_boxes)
    assert ranges == [(0, 0, 40, False)]


def _whole_space() -> Polyhedron:
    return Polyhedron.from_box(Box(np.full(4, -1e6), np.full(4, 1e6)))


def _empty_query() -> Polyhedron:
    return Polyhedron.from_box(Box(np.full(4, 50.0), np.full(4, 51.0)))


@pytest.mark.parametrize("use_tight_boxes", [True, False], ids=["tight", "partition"])
def test_whole_space_and_empty_queries(index, use_tight_boxes):
    ranges, members = _assert_same_walk(index, [_whole_space()], use_tight_boxes)
    assert ranges == [(0, 0, NUM_ROWS, False)]
    assert _counts(members[0]) == (1, 0, 1, 0)
    ranges, members = _assert_same_walk(index, [_empty_query()], use_tight_boxes)
    assert ranges == []
    assert _counts(members[0]) == (1, 1, 0, 0)
    rng = np.random.default_rng(400)
    _assert_same_walk(
        index, [_empty_query(), _random_box(rng), _whole_space(), _random_oblique(rng)]
    )


def test_no_members(index):
    assert index.traverse([]) == _reference_traverse(index, []) == []


class _Cancelled(Exception):
    pass


class _RaiseOnCall:
    """A cancel check that raises on its ``call``-th poll."""

    def __init__(self, call: int):
        self.call = call
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls >= self.call:
            raise _Cancelled(f"poll {self.calls}")


@pytest.mark.parametrize("call", [1, 2, 3, 5, 8])
def test_cancelled_member_leaves_siblings_unaffected(index, call):
    rng = np.random.default_rng(500 + call)
    polyhedra = [_random_query(rng) for _ in range(4)]
    polyhedra[1] = Polyhedron.from_box(Box(np.full(4, -0.4), np.full(4, 0.9)))
    full = _members(polyhedra)
    full_ranges = index.traverse(full)
    for walk in (index.traverse, lambda ms: _reference_traverse(index, ms)):
        members = _members(polyhedra, [None, _RaiseOnCall(call), None, None])
        ranges = walk(members)
        assert isinstance(members[1].error, _Cancelled)
        assert [r for r in ranges if r[0] != 1] == [r for r in full_ranges if r[0] != 1]
        for m in (0, 2, 3):
            assert members[m].error is None
            assert _counts(members[m]) == _counts(full[m])
        # The cancelled member keeps only work it finished before its check raised.
        assert {r for r in ranges if r[0] == 1} <= {r for r in full_ranges if r[0] == 1}
        assert all(a <= b for a, b in zip(_counts(members[1]), _counts(full[1])))
        if call == 1:
            assert [r for r in ranges if r[0] == 1] == []
            assert _counts(members[1]) == (0, 0, 0, 0)


def test_member_with_error_before_the_walk_is_skipped(index):
    rng = np.random.default_rng(600)
    polyhedra = [_random_query(rng) for _ in range(3)]
    got_members, want_members = _members(polyhedra), _members(polyhedra)
    for members in (got_members, want_members):
        members[0].error = _Cancelled("before")
    assert index.traverse(got_members) == _reference_traverse(index, want_members)
    assert [_counts(m) for m in got_members] == [_counts(m) for m in want_members]
    assert _counts(got_members[0]) == (0, 0, 0, 0)


# -- insert routing -------------------------------------------------------------


def _on_split_planes(tree, rng, count: int) -> np.ndarray:
    """Points sitting exactly on internal nodes' cut planes."""
    nodes = rng.integers(1, tree.first_leaf, size=count)
    points = []
    for node in nodes.tolist():
        axis, value = tree.split_plane(node)
        point = tree.partition_box(node).center.copy()
        point[axis] = value
        points.append(point)
    return np.array(points)


@pytest.mark.parametrize("fixture", ["index", "overfull"])
def test_leaf_of_points_matches_per_node_descent(request, fixture):
    tree = request.getfixturevalue(fixture).tree
    rng = np.random.default_rng(700)
    points = np.vstack(
        [
            _points(500, seed=701),
            rng.uniform(-20.0, 20.0, size=(200, 4)),
            _on_split_planes(tree, rng, 300),
        ]
    )
    got = tree.leaf_of_points(points)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_leaf_of_points(tree, points))
    assert np.array_equal(tree.leaf_of_points(points[:0]), np.empty(0, dtype=np.int64))


def test_leaf_of_points_ties_go_left(index):
    tree = index.tree
    axis, value = tree.split_plane(1)
    point = tree.partition_box(1).center.copy()
    point[axis] = value
    leaf = tree.leaf_of_points(point[np.newaxis, :])[0]
    assert tree.first_leaf <= leaf < tree.first_leaf + tree.num_leaves // 2
