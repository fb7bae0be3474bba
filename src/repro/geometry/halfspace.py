"""Halfspaces and convex polyhedra.

The paper's query shapes: "scientific questions are hence transformed into
queries which are hyper planes (linear theories) or curved surfaces
(nonlinear theories).  In practice these can be broken down into polyhedron
queries" (§1).  A :class:`Polyhedron` here is an intersection of closed
halfspaces ``a . x <= b`` -- exactly the form the SkyServer WHERE clauses
of Figure 2 take after moving terms to one side.

Every box test in the program -- the kd walk, the page zone maps, the
R-tree, the shard router and the delta tier's reject -- goes through one
kernel, :meth:`Polyhedron.classify_boxes`, so they all agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.boxes import Box, BoxRelation

__all__ = [
    "CONTAINS_BLOCK_ROWS",
    "INSIDE",
    "OUTSIDE",
    "PARTIAL",
    "RELATIONS",
    "Halfspace",
    "Polyhedron",
]

#: The integer codes :meth:`Polyhedron.classify_boxes` returns, and the
#: :class:`~repro.geometry.boxes.BoxRelation` each code stands for.
OUTSIDE, PARTIAL, INSIDE = 0, 1, 2
RELATIONS = (BoxRelation.OUTSIDE, BoxRelation.PARTIAL, BoxRelation.INSIDE)

#: Rows per matrix product of :meth:`Polyhedron.contains_points`.  One
#: product over tens of thousands of rows is large enough for BLAS to
#: split across threads, and on a shared two-core machine waking the
#: second thread costs ~5 ms per call; blocks of this size stay on the
#: calling thread for the usual handful of halfspaces.
CONTAINS_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Halfspace:
    """The closed halfspace ``normal . x <= offset``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=np.float64)
        if normal.ndim != 1:
            raise ValueError("normal must be a 1-d array")
        if not np.any(normal != 0.0):
            raise ValueError("normal must be non-zero")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return self.normal.shape[0]

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` satisfies ``normal . x <= offset``."""
        return bool(np.dot(self.normal, np.asarray(point, float)) <= self.offset)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership mask for an ``(n, d)`` array."""
        return np.asarray(points, float) @ self.normal <= self.offset

    def signed_distance(self, point: np.ndarray) -> float:
        """Signed Euclidean distance to the boundary plane (<= 0 inside)."""
        norm = float(np.linalg.norm(self.normal))
        return float(
            (np.dot(self.normal, np.asarray(point, float)) - self.offset) / norm
        )

    def box_extremes(self, box: Box) -> tuple[float, float]:
        """Min and max of ``normal . x`` over the box.

        The extremes are attained at corners; which corner is determined
        per-axis by the sign of the normal component, so this is O(d)
        rather than O(2^d).
        """
        pos = np.maximum(self.normal, 0.0)
        neg = np.minimum(self.normal, 0.0)
        lo_value = float(pos @ box.lo + neg @ box.hi)
        hi_value = float(pos @ box.hi + neg @ box.lo)
        return lo_value, hi_value

    def flipped(self) -> "Halfspace":
        """The complementary closed halfspace ``-normal . x <= -offset``."""
        return Halfspace(-self.normal, -self.offset)


class Polyhedron:
    """A convex polyhedron as an intersection of closed halfspaces.

    This is the query object of the whole system: every index evaluates
    polyhedron queries by classifying its cells against instances of this
    class (Figure 4 of the paper).
    """

    def __init__(self, halfspaces: list[Halfspace]):
        if not halfspaces:
            raise ValueError("a polyhedron needs at least one halfspace")
        dim = halfspaces[0].dim
        for hs in halfspaces:
            if hs.dim != dim:
                raise ValueError("halfspaces must share a dimension")
        self._halfspaces = tuple(halfspaces)
        self._dim = dim
        # Stacked form for vectorized evaluation; the kernels put faces on
        # the leading axis, so offsets are kept as an ``(m, 1)`` column.
        self._normals = np.stack([hs.normal for hs in halfspaces])
        self._offsets = np.array([hs.offset for hs in halfspaces])
        self._offset_col = self._offsets[:, np.newaxis]
        # Positive and negative parts of the normals for the corner trick.
        self._pos = np.maximum(self._normals, 0.0)
        self._neg = np.minimum(self._normals, 0.0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_box(box: Box) -> "Polyhedron":
        """The box as a polyhedron of ``2 d`` axis-aligned halfspaces."""
        halfspaces = []
        dim = box.dim
        for axis in range(dim):
            unit = np.zeros(dim)
            unit[axis] = 1.0
            halfspaces.append(Halfspace(unit, box.hi[axis]))
            halfspaces.append(Halfspace(-unit, -box.lo[axis]))
        return Polyhedron(halfspaces)

    @staticmethod
    def from_inequalities(normals: np.ndarray, offsets: np.ndarray) -> "Polyhedron":
        """Build from stacked ``A x <= b`` form."""
        normals = np.asarray(normals, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        return Polyhedron(
            [Halfspace(normal, offset) for normal, offset in zip(normals, offsets)]
        )

    @staticmethod
    def simplex_around(center: np.ndarray, radius: float) -> "Polyhedron":
        """A regular-ish simplex-shaped polyhedron around a center point.

        Handy for generating non-axis-aligned test queries: d+1 halfspaces
        whose normals are the coordinate axes plus the all-ones diagonal.
        """
        center = np.asarray(center, dtype=np.float64)
        dim = center.shape[0]
        halfspaces = []
        for axis in range(dim):
            unit = np.zeros(dim)
            unit[axis] = -1.0
            halfspaces.append(Halfspace(unit, -(center[axis] - radius)))
        ones = np.ones(dim) / np.sqrt(dim)
        halfspaces.append(Halfspace(ones, float(ones @ center) + radius))
        return Polyhedron(halfspaces)

    # -- properties ---------------------------------------------------------

    @property
    def dim(self) -> int:
        """Ambient dimension."""
        return self._dim

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The defining halfspaces."""
        return self._halfspaces

    @property
    def normals(self) -> np.ndarray:
        """Stacked normals, shape ``(m, d)``."""
        return self._normals

    @property
    def offsets(self) -> np.ndarray:
        """Stacked offsets, shape ``(m,)``."""
        return self._offsets

    # -- membership -----------------------------------------------------------

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` satisfies every inequality."""
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(self._normals @ point <= self._offsets))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership mask for an ``(n, d)`` array.

        The product runs ``CONTAINS_BLOCK_ROWS`` rows at a time, faces on
        the leading axis: ``normals @ block.T`` is ``(m, n)``, and the AND
        over faces combines whole rows of it into the output mask (an AND
        along the short last axis of an ``(n, m)`` array costs about ten
        times as much).  An ``(n, d)`` view of a ``(d, n)`` array is read
        without a copy.
        """
        points = np.asarray(points, dtype=np.float64)
        mask = np.empty(len(points), dtype=bool)
        for start in range(0, len(points), CONTAINS_BLOCK_ROWS):
            stop = start + CONTAINS_BLOCK_ROWS
            np.logical_and.reduce(
                self._normals @ points[start:stop].T <= self._offset_col,
                axis=0,
                out=mask[start:stop],
            )
        return mask

    # -- classification against boxes ------------------------------------------

    def classify_boxes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Classify ``n`` boxes at once: an ``int8`` code per box.

        ``lo`` and ``hi`` are the ``(n, d)`` corners; the codes are
        :data:`OUTSIDE`, :data:`PARTIAL` and :data:`INSIDE`.  This is the
        primitive of the paper's Figure 4.  The min and max of every
        linear form over every box sit at corners chosen per axis by the
        sign of the normal (the corner trick), so two pairs of
        ``(m, d) @ (d, n)`` products give them all, faces on the leading
        axis as in :meth:`contains_points`:

        * if some halfspace's *minimum* exceeds its offset, the box is
          entirely outside that halfspace, hence OUTSIDE the polyhedron;
        * if every halfspace's *maximum* is within its offset, the box
          satisfies all constraints everywhere, hence INSIDE;
        * otherwise the box straddles at least one boundary: PARTIAL.

        The OUTSIDE test is conservative for genuinely *partial* overlaps
        of the polyhedron with the box when no single halfspace separates
        them (the box may still be disjoint from the intersection); those
        rare cases are safely reported PARTIAL and resolved by the
        per-point residual filter, so correctness is never affected.
        """
        lo_t = np.asarray(lo, dtype=np.float64).T
        hi_t = np.asarray(hi, dtype=np.float64).T
        lowest = self._pos @ lo_t
        lowest += self._neg @ hi_t
        highest = self._pos @ hi_t
        highest += self._neg @ lo_t
        outside = np.logical_or.reduce(lowest > self._offset_col, axis=0)
        inside = np.logical_and.reduce(highest <= self._offset_col, axis=0)
        codes = inside.view(np.int8) + np.int8(PARTIAL)  # INSIDE is PARTIAL + 1
        codes[outside] = OUTSIDE
        return codes

    def classify_box(self, box: Box) -> BoxRelation:
        """Classify one box: :meth:`classify_boxes` on a batch of one."""
        return RELATIONS[self.classify_boxes(box.lo[np.newaxis], box.hi[np.newaxis])[0]]

    # -- classification against balls -------------------------------------------

    def classify_ball(self, center: np.ndarray, radius: float) -> BoxRelation:
        """Classify the ball ``|x - center| <= radius``.

        Used by the sampled-Voronoi index: a Voronoi cell is enclosed in
        the ball around its seed with radius = distance to its farthest
        member, and encloses nothing we rely on -- so ball classification
        gives a sound INSIDE/OUTSIDE/PARTIAL verdict for the cell
        (conservative toward PARTIAL).
        """
        center = np.asarray(center, dtype=np.float64)
        all_inside = True
        for halfspace in self._halfspaces:
            signed = halfspace.signed_distance(center)
            if signed - radius > 0.0:
                return BoxRelation.OUTSIDE
            if signed + radius > 0.0:
                all_inside = False
        return BoxRelation.INSIDE if all_inside else BoxRelation.PARTIAL

    def min_distance_to_point(self, point: np.ndarray) -> float:
        """Lower bound on the distance from ``point`` to the polyhedron.

        Zero when inside; otherwise the largest violated halfspace's
        plane distance (a valid lower bound for convex bodies).
        """
        point = np.asarray(point, dtype=np.float64)
        worst = 0.0
        for halfspace in self._halfspaces:
            signed = halfspace.signed_distance(point)
            if signed > worst:
                worst = signed
        return worst

    def intersected_with(self, other: "Polyhedron") -> "Polyhedron":
        """Polyhedron from the union of both constraint sets."""
        return Polyhedron(list(self._halfspaces) + list(other.halfspaces))

    def __len__(self) -> int:
        return len(self._halfspaces)

    def __repr__(self) -> str:
        return f"Polyhedron(dim={self._dim}, faces={len(self._halfspaces)})"
