"""Tests for halfspaces and convex polyhedra."""

import numpy as np
import pytest

from repro.geometry import Box, BoxRelation, Halfspace, Polyhedron
from repro.geometry.halfspace import (
    CONTAINS_BLOCK_ROWS,
    INSIDE,
    OUTSIDE,
    PARTIAL,
    RELATIONS,
)


class TestHalfspace:
    def test_contains_point(self):
        hs = Halfspace(np.array([1.0, 0.0]), 1.0)  # x <= 1
        assert hs.contains_point([0.5, 99.0])
        assert hs.contains_point([1.0, 0.0])  # closed
        assert not hs.contains_point([1.5, 0.0])

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Halfspace(np.zeros(3), 1.0)

    def test_signed_distance_scale_invariant(self):
        a = Halfspace(np.array([1.0, 0.0]), 1.0)
        b = Halfspace(np.array([10.0, 0.0]), 10.0)
        p = [3.0, 0.0]
        assert np.isclose(a.signed_distance(p), b.signed_distance(p))
        assert np.isclose(a.signed_distance(p), 2.0)

    def test_signed_distance_negative_inside(self):
        hs = Halfspace(np.array([0.0, 1.0]), 0.0)  # y <= 0
        assert hs.signed_distance([0.0, -2.0]) == -2.0

    def test_box_extremes_match_corners(self):
        rng = np.random.default_rng(1)
        b = Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 5.0]))
        for _ in range(20):
            hs = Halfspace(rng.normal(size=3), 0.0)
            values = b.corners() @ hs.normal
            lo, hi = hs.box_extremes(b)
            assert np.isclose(lo, values.min())
            assert np.isclose(hi, values.max())

    def test_flipped(self):
        hs = Halfspace(np.array([1.0]), 2.0)
        flipped = hs.flipped()
        assert flipped.contains_point([3.0])
        assert not flipped.contains_point([1.0])

    def test_contains_points_vectorized(self):
        hs = Halfspace(np.array([1.0, 1.0]), 1.0)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        assert hs.contains_points(pts).tolist() == [True, False, True]


class TestPolyhedron:
    def test_from_box_membership_matches_box(self):
        rng = np.random.default_rng(2)
        b = Box(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 3.0]))
        poly = Polyhedron.from_box(b)
        pts = rng.uniform(-2, 4, size=(500, 3))
        assert np.array_equal(poly.contains_points(pts), b.contains_points(pts))

    def test_needs_halfspaces(self):
        with pytest.raises(ValueError):
            Polyhedron([])

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            Polyhedron(
                [Halfspace(np.ones(2), 0.0), Halfspace(np.ones(3), 0.0)]
            )

    def test_from_inequalities(self):
        poly = Polyhedron.from_inequalities(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0])
        )
        assert poly.contains_point([0.5, 123.0])
        assert not poly.contains_point([-0.5, 0.0])

    def test_intersected_with(self):
        a = Polyhedron.from_box(Box(np.zeros(2), np.ones(2) * 2))
        b = Polyhedron.from_box(Box(np.ones(2), np.ones(2) * 3))
        both = a.intersected_with(b)
        assert both.contains_point([1.5, 1.5])
        assert not both.contains_point([0.5, 0.5])

    def test_len_and_repr(self):
        poly = Polyhedron.from_box(Box.unit(3))
        assert len(poly) == 6
        assert "dim=3" in repr(poly)


class TestClassifyBox:
    def setup_method(self):
        # The triangle x >= 0, y >= 0, x + y <= 1.
        self.poly = Polyhedron(
            [
                Halfspace(np.array([-1.0, 0.0]), 0.0),
                Halfspace(np.array([0.0, -1.0]), 0.0),
                Halfspace(np.array([1.0, 1.0]), 1.0),
            ]
        )

    def test_inside(self):
        b = Box(np.array([0.1, 0.1]), np.array([0.2, 0.2]))
        assert self.poly.classify_box(b) is BoxRelation.INSIDE

    def test_outside_separated_by_one_halfspace(self):
        b = Box(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
        assert self.poly.classify_box(b) is BoxRelation.OUTSIDE

    def test_partial(self):
        b = Box(np.array([0.4, 0.4]), np.array([0.8, 0.8]))
        assert self.poly.classify_box(b) is BoxRelation.PARTIAL

    def test_conservative_never_wrong(self):
        # Randomized soundness check: INSIDE boxes contain only members,
        # OUTSIDE boxes contain no members.
        rng = np.random.default_rng(3)
        for _ in range(200):
            lo = rng.uniform(-1, 1.5, 2)
            hi = lo + rng.uniform(0.01, 1.0, 2)
            b = Box(lo, hi)
            relation = self.poly.classify_box(b)
            sample = rng.uniform(lo, hi, size=(64, 2))
            inside = self.poly.contains_points(sample)
            if relation is BoxRelation.INSIDE:
                assert inside.all()
            elif relation is BoxRelation.OUTSIDE:
                assert not inside.any()


def _classify_by_extremes(poly: Polyhedron, box: Box) -> BoxRelation:
    """The per-face loop: one ``box_extremes`` call per halfspace."""
    all_inside = True
    for halfspace in poly.halfspaces:
        lo_value, hi_value = halfspace.box_extremes(box)
        if lo_value > halfspace.offset:
            return BoxRelation.OUTSIDE
        if hi_value > halfspace.offset:
            all_inside = False
    return BoxRelation.INSIDE if all_inside else BoxRelation.PARTIAL


class TestClassifyBoxes:
    """The box kernel against the per-face ``box_extremes`` loop."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_box_extremes_loop(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(30):
            faces = int(rng.integers(1, 9))
            normals = rng.normal(size=(faces, dim))
            normals[rng.random(normals.shape) < 0.2] = 0.0
            normals[np.all(normals == 0.0, axis=1), 0] = 1.0
            poly = Polyhedron.from_inequalities(normals, rng.normal(size=faces))
            lo = rng.uniform(-2.0, 2.0, size=(64, dim))
            hi = lo + rng.uniform(0.0, 1.5, size=(64, dim))
            # Degenerate boxes: zero width on some axes, or points.
            hi[:8] = lo[:8]
            flat = rng.random((64, dim)) < 0.2
            hi[flat] = lo[flat]
            codes = poly.classify_boxes(lo, hi)
            assert codes.dtype == np.int8 and codes.shape == (64,)
            want = [_classify_by_extremes(poly, Box(a, b)) for a, b in zip(lo, hi)]
            assert [RELATIONS[c] for c in codes] == want
            assert [poly.classify_box(Box(a, b)) for a, b in zip(lo, hi)] == want

    def test_faces_through_box_corners(self):
        # Axis-aligned faces sitting exactly on box edges: closed faces
        # make a box on the boundary INSIDE, one past it OUTSIDE.
        poly = Polyhedron.from_box(Box(np.zeros(2), np.ones(2)))
        lo = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        hi = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.5, 0.5]])
        want = [_classify_by_extremes(poly, Box(a, b)) for a, b in zip(lo, hi)]
        assert want == [
            BoxRelation.INSIDE, BoxRelation.INSIDE, BoxRelation.PARTIAL, BoxRelation.INSIDE
        ]
        assert [RELATIONS[c] for c in poly.classify_boxes(lo, hi)] == want

    def test_no_boxes(self):
        poly = Polyhedron.from_box(Box(np.zeros(3), np.ones(3)))
        assert poly.classify_boxes(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)


def test_contains_points_blocks_match_one_product():
    rng = np.random.default_rng(9)
    poly = Polyhedron.from_inequalities(rng.normal(size=(5, 3)), rng.uniform(0, 1, 5))
    points = rng.normal(size=(2 * CONTAINS_BLOCK_ROWS + 17, 3))
    want = np.all(points @ poly.normals.T <= poly.offsets, axis=1)
    assert np.array_equal(poly.contains_points(points), want)
    assert poly.contains_points(points[:0]).shape == (0,)


# -- both kernels against the oracle's one-face-at-a-time formula ----------------
#
# The benchmark oracle evaluates a polyhedron face by face: the weighted
# sum of the columns a face names, compared with its offset, faces with
# an infinite offset skipped.  Coordinates and weights below are
# multiples of 1/4 with small numerators, so every product and sum is
# exact in float64 and a point or corner placed on a face is exactly on
# it, whatever order the kernel adds in.

REFERENCE_ROWS = [0, 1, 50, CONTAINS_BLOCK_ROWS - 1, CONTAINS_BLOCK_ROWS + 1, 10_000]
REFERENCE_DIM = 5


def _face_sum(columns, normal):
    """One face's weighted sum over the columns it names (zero if none)."""
    return sum(columns[a] * normal[a] for a in np.flatnonzero(normal))


def _oracle_contains(normals, offsets, points):
    mask = np.ones(len(points), dtype=bool)
    for normal, offset in zip(normals, offsets):
        if np.isfinite(offset):
            mask &= _face_sum(points.T, normal) <= offset
    return mask


def _oracle_classify(normals, offsets, lo, hi):
    outside = np.zeros(len(lo), dtype=bool)
    inside = np.ones(len(lo), dtype=bool)
    for normal, offset in zip(normals, offsets):
        if not np.isfinite(offset):
            continue
        # The lowest and highest corner, chosen per axis by the weight's sign.
        lowest = _face_sum(np.where(normal > 0, lo, hi).T, normal)
        highest = _face_sum(np.where(normal > 0, hi, lo).T, normal)
        outside |= lowest > offset
        inside &= highest <= offset
    return np.where(outside, OUTSIDE, np.where(inside, INSIDE, PARTIAL)).astype(np.int8)


def _quarters(rng, low, high, size):
    return rng.integers(4 * low, 4 * high + 1, size=size) / 4.0


def _faces(rng, m, anchors):
    """``m`` quarter-step faces: some through an anchor point, some ``+inf``."""
    normals = _quarters(rng, -1, 1, (m, REFERENCE_DIM))
    normals[rng.random(normals.shape) < 0.3] = 0.0
    normals[np.all(normals == 0.0, axis=1), int(rng.integers(REFERENCE_DIM))] = 1.0
    offsets = _quarters(rng, -8, 8, m)
    kind = rng.integers(0, 3, m)  # 0: free, 1: through an anchor, 2: everything
    if len(anchors):
        on = anchors[rng.integers(0, len(anchors), m)]
        offsets = np.where(kind == 1, np.einsum("ij,ij->i", normals, on), offsets)
    offsets[kind == 2] = np.inf
    return normals, offsets


class TestKernelsAgainstFaceByFaceOracle:
    @pytest.mark.parametrize("n", REFERENCE_ROWS)
    def test_contains_points(self, n):
        rng = np.random.default_rng(n)
        points = _quarters(rng, -10, 10, (n, REFERENCE_DIM))
        on_a_face = 0
        for m in range(1, 13):
            normals, offsets = _faces(rng, m, points)
            poly = Polyhedron.from_inequalities(normals, offsets)
            got = poly.contains_points(points)
            assert got.dtype == bool and got.shape == (n,)
            assert np.array_equal(got, _oracle_contains(normals, offsets, points))
            # The same points handed over as the transpose of a (d, n) block.
            block = np.ascontiguousarray(points.T)
            assert np.array_equal(poly.contains_points(block.T), got)
            on_a_face += int(np.count_nonzero(normals @ block == offsets[:, None]))
        assert on_a_face or not n

    @pytest.mark.parametrize("n", REFERENCE_ROWS)
    def test_classify_boxes(self, n):
        rng = np.random.default_rng(100 + n)
        lo = _quarters(rng, -10, 10, (n, REFERENCE_DIM))
        hi = lo + _quarters(rng, 0, 3, (n, REFERENCE_DIM))
        hi[: n // 8] = lo[: n // 8]  # some boxes are points
        # Corners chosen axis by axis, so faces pass through box corners.
        corners = np.where(rng.random((n, REFERENCE_DIM)) < 0.5, lo, hi)
        on_a_face = 0
        for m in range(1, 13):
            normals, offsets = _faces(rng, m, corners)
            poly = Polyhedron.from_inequalities(normals, offsets)
            got = poly.classify_boxes(lo, hi)
            assert got.dtype == np.int8 and got.shape == (n,)
            assert np.array_equal(got, _oracle_classify(normals, offsets, lo, hi))
            # The zone maps hand over transposes of (d, pages) matrices.
            lo_t, hi_t = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
            assert np.array_equal(poly.classify_boxes(lo_t.T, hi_t.T), got)
            on_a_face += int(np.count_nonzero(normals @ corners.T == offsets[:, None]))
        assert on_a_face or not n

    def test_everything_face_holds_every_point_and_box(self):
        # The needle's polyhedron: one face with an infinite offset.
        poly = Polyhedron([Halfspace(np.eye(REFERENCE_DIM)[0], np.inf)])
        rng = np.random.default_rng(5)
        points = rng.normal(size=(CONTAINS_BLOCK_ROWS + 3, REFERENCE_DIM)) * 1e6
        assert poly.contains_points(points).all()
        codes = poly.classify_boxes(points, points + np.abs(points))
        assert (codes == INSIDE).all()


class TestClassifyBall:
    def setup_method(self):
        self.poly = Polyhedron.from_box(Box(np.zeros(3), np.ones(3)))

    def test_inside(self):
        rel = self.poly.classify_ball(np.array([0.5, 0.5, 0.5]), 0.2)
        assert rel is BoxRelation.INSIDE

    def test_outside(self):
        rel = self.poly.classify_ball(np.array([3.0, 0.5, 0.5]), 0.5)
        assert rel is BoxRelation.OUTSIDE

    def test_partial(self):
        rel = self.poly.classify_ball(np.array([0.5, 0.5, 0.5]), 2.0)
        assert rel is BoxRelation.PARTIAL

    def test_soundness_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            center = rng.uniform(-0.5, 1.5, 3)
            radius = rng.uniform(0.01, 0.8)
            relation = self.poly.classify_ball(center, radius)
            direction = rng.normal(size=(64, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            sample = center + direction * rng.uniform(0, radius, (64, 1))
            inside = self.poly.contains_points(sample)
            if relation is BoxRelation.INSIDE:
                assert inside.all()
            elif relation is BoxRelation.OUTSIDE:
                assert not inside.any()


class TestMinDistance:
    def test_inside_is_zero(self):
        poly = Polyhedron.from_box(Box.unit(2))
        assert poly.min_distance_to_point([0.5, 0.5]) == 0.0

    def test_lower_bound_property(self):
        # min_distance is a valid lower bound on the true distance.
        poly = Polyhedron.from_box(Box.unit(2))
        p = np.array([2.0, 2.0])
        bound = poly.min_distance_to_point(p)
        true = np.sqrt(2.0)
        assert 0 < bound <= true + 1e-12

    def test_axis_aligned_exact(self):
        poly = Polyhedron.from_box(Box.unit(2))
        assert np.isclose(poly.min_distance_to_point([3.0, 0.5]), 2.0)


class TestSimplexAround:
    def test_center_inside(self):
        center = np.array([1.0, -2.0, 0.5])
        poly = Polyhedron.simplex_around(center, 0.5)
        assert poly.contains_point(center)

    def test_bounded_reach(self):
        center = np.zeros(3)
        poly = Polyhedron.simplex_around(center, 0.5)
        assert not poly.contains_point(center - 10.0)
