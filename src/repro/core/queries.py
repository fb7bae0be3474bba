"""Shared polyhedron-query plumbing and the full-scan baseline.

Figure 5 compares "using the kd-tree index" against "simple SQL queries";
the latter is :func:`polyhedron_full_scan`.  :func:`selectivity` is the
x-axis of that figure: returned rows / total rows.
"""

from __future__ import annotations

import numpy as np

from repro.db.fetch import Outcome, query_members, solo
from repro.db.scan import batch_full_scan
from repro.db.stats import QueryStats
from repro.db.table import Table
from repro.geometry.halfspace import Polyhedron

__all__ = ["polyhedron_batch_full_scan", "polyhedron_full_scan", "selectivity"]


def polyhedron_full_scan(
    table: Table,
    dims: list[str],
    polyhedron: Polyhedron,
    cancel_check=None,
    use_zone_maps: bool = True,
    memberships: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Evaluate a polyhedron query by scanning every page (the baseline).

    A batch of one of :func:`polyhedron_batch_full_scan`.
    ``cancel_check`` runs once per page (cooperative deadline
    cancellation); whatever it raises is re-raised here.
    """
    return solo(
        polyhedron_batch_full_scan(
            table,
            dims,
            [polyhedron],
            [cancel_check],
            use_zone_maps=use_zone_maps,
            memberships_list=[memberships],
        )
    )


def polyhedron_batch_full_scan(
    table: Table,
    dims: list[str],
    polyhedra: list[Polyhedron],
    cancel_checks: list | None = None,
    use_zone_maps: bool = True,
    memberships_list: list[dict | None] | None = None,
) -> tuple[list[Outcome], dict]:
    """Evaluate several polyhedron queries in one shared scan pass.

    Each surviving page is read and decoded once and every member's
    polyhedron (over ``dims``) is evaluated vectorized against the
    shared column arrays; per-member results (rows, stats, error) and
    the shared-work counters come back exactly as from
    :func:`repro.db.scan.batch_full_scan`.

    When the table carries a zone map covering ``dims`` (and
    ``use_zone_maps`` is left on), a member skips pages whose min/max
    box is disjoint from its polyhedron before any read, and its
    polyhedron test on pages fully inside it -- the "baseline" then
    behaves like a poor man's index, which is exactly the comparison the
    I/O bench draws.  ``memberships_list`` adds per-member IN-list
    filters, which apply to every page the member reads.
    """
    members = query_members(polyhedra, dims, cancel_checks, memberships_list)
    zone_map = table.zone_map() if use_zone_maps else None
    if zone_map is not None:
        for member in members:
            member.pruner = zone_map.pruner(member.polyhedron, dims)
    return batch_full_scan(table, members)


def selectivity(stats: QueryStats, total_rows: int) -> float:
    """Returned / total rows: the x-axis of Figure 5."""
    if total_rows <= 0:
        return 0.0
    return stats.rows_returned / total_rows


def ball_polyhedron(center: np.ndarray, radius: float, facets: int = 32, seed: int = 0) -> Polyhedron:
    """A circumscribing polytope of the ball ``|x - center| <= radius``.

    §1: nonlinear query surfaces "can be broken down into polyhedron
    queries".  The construction: tangent halfspaces at ``facets``
    well-spread directions (the 2d axis directions plus quasi-random unit
    vectors), each of the form ``u . x <= u . center + radius``.  The
    polytope strictly contains the ball, so running it through an index
    and then filtering by exact distance yields the exact ball query.
    """
    center = np.asarray(center, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")
    dim = len(center)
    if facets < 2 * dim:
        raise ValueError(f"need at least 2d = {2 * dim} facets")
    rng = np.random.default_rng(seed)
    directions = [np.eye(dim)[axis] * sign for axis in range(dim) for sign in (1.0, -1.0)]
    while len(directions) < facets:
        vec = rng.normal(size=dim)
        directions.append(vec / np.linalg.norm(vec))
    from repro.geometry.halfspace import Halfspace

    # A hair of relative slack keeps surface points inside despite
    # floating-point roundoff; the exact distance filter removes it.
    slack = 1e-9 * (float(np.abs(center).max()) + radius + 1.0)
    halfspaces = [
        Halfspace(u, float(u @ center) + radius + slack)
        for u in directions[:facets]
    ]
    return Polyhedron(halfspaces)


def ball_query(
    index, center: np.ndarray, radius: float, facets: int = 32
) -> tuple[dict[str, np.ndarray], QueryStats]:
    """Exact range (ball) query through a spatial index.

    Runs the circumscribing polytope through ``index.query_polyhedron``
    and applies the exact distance filter to the (slightly larger)
    candidate set.  The polytope's volume overhead shrinks as ``facets``
    grows; 32 facets in 5-D keeps it within a few percent.
    """
    center = np.asarray(center, dtype=np.float64)
    polytope = ball_polyhedron(center, radius, facets=facets)
    rows, stats = index.query_polyhedron(polytope)
    pts = index.points_of(rows)
    if len(pts):
        inside = np.einsum("ij,ij->i", pts - center, pts - center) <= radius**2
        rows = {k: v[inside] for k, v in rows.items()}
        stats.extra["candidates"] = int(len(inside))
        stats.rows_returned = int(inside.sum())
    return rows, stats
