"""The four access paths the planner chooses among, named once.

Every engine answers the paper's query the same way (§3.2, Figure 4): an
index names candidate row ranges, a ``BETWEEN`` fetches them, and a
residual test decides.  Each engine is one object:

- ``name`` -- its ``chosen_path``, ``cost_<name>`` extra and calibration
  key;
- ``available(planner)`` -- whether the table carries what it needs;
- ``price(planner, query)`` -- raw predicted pages decoded;
- ``run(planner, polyhedra, checks, member_filters, candidates)`` -- one
  shared pass over a member group: ``(outcomes, counters)``.

:data:`ENGINES` holds them in run order, the scan last so an index group
that dies on a storage fault can still join it.  The planner, the CLI's
``--engine`` choices and the service's per-engine counts read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitmap.executor import batch_bitmap_query, batch_hybrid_query
from repro.core.batch import batch_kd_query
from repro.core.queries import polyhedron_batch_full_scan
from repro.geometry.halfspace import Polyhedron

__all__ = ["ENGINES", "Engine", "KD", "Pricing", "SCAN", "engine_choices", "engine_named"]

#: Cost weight of one paged-index node page relative to a data page.
#: Node pages are small, compressed, and usually node-cache resident,
#: so a traversal's index I/O is a light surcharge, not a data read.
_INDEX_PAGE_READ_COST = 0.25


@dataclass
class Pricing:
    """One query's pricing pass: raw pages per engine priced so far, and
    ``(bitmap index, candidate rows)`` once the bitmap's price built the
    exact candidate set -- its run reuses the rows instead of ANDing the
    bitmaps again."""

    polyhedron: Polyhedron
    memberships: dict | None
    costs: dict[str, float] = field(default_factory=dict)
    candidates: tuple | None = None


def _rows_for(bitmap, candidates):
    """The plan's candidate rows, if they came from this ``bitmap`` object
    (never one a merge swapped in since the plan was priced)."""
    if candidates is not None and candidates[0] is bitmap:
        return candidates[1]
    return None


class Engine:
    """One access path; see the module docstring for the members."""

    name = ""
    #: What the table must carry for this engine; empty when nothing.
    needs = ""

    def available(self, planner) -> bool:
        return True

    def price(self, planner, query: Pricing) -> float:
        raise NotImplementedError

    def run(self, planner, polyhedra, checks, member_filters, candidates):
        raise NotImplementedError


class _KdTree(Engine):
    """The kd-tree traversal: the paper's index below the crossover."""

    name = "kdtree"

    def price(self, planner, query: Pricing) -> float:
        """Leaves whose cell survives the per-axis slab fractions, times
        pages per leaf (each axis contributes ``f_i * L^(1/d) + 1`` of its
        ``L^(1/d)`` splits -- the +1 is the straddling cell), plus the
        traversal's node pages: discounted, being node-cache resident on
        repeat, but nonzero, so kd never looks free against scan on a
        table small enough that the index rivals the data."""
        index = planner.index
        table = index.table
        num_pages = max(1, table.num_pages)
        leaves = max(1, index.tree.num_leaves)
        per_axis_splits = leaves ** (1.0 / max(1, len(index.dims)))
        leaves_hit = 1.0
        for fraction in planner.axis_fractions(query.polyhedron):
            leaves_hit *= min(per_axis_splits, fraction * per_axis_splits + 1.0)
        leaves_hit = min(float(leaves), leaves_hit)
        pages_per_leaf = max(
            1.0, max(1, table.num_rows) / (leaves * max(1, table.rows_per_page))
        )
        layout = index.tree.layout
        node_pages = min(
            float(layout.num_pages),
            1.0 + 2.0 * leaves_hit / max(1, layout.nodes_per_page),
        )
        return (
            min(float(num_pages), leaves_hit * pages_per_leaf)
            + _INDEX_PAGE_READ_COST * node_pages
        )

    def run(self, planner, polyhedra, checks, member_filters, candidates):
        return batch_kd_query(
            planner.index, polyhedra, checks, memberships_list=member_filters
        )


class _Bitmap(Engine):
    """Binned bitmap ANDs name the candidate rows."""

    name = "bitmap"
    needs = "bitmap index"

    def available(self, planner) -> bool:
        return planner.bitmap_index is not None

    def price(self, planner, query: Pricing) -> float:
        """The exact candidate page count, known from in-memory bitmap
        ANDs before any page read.  When nothing constrains the index the
        fraction estimate, nudged by the running selectivity bias, stands
        in."""
        bitmap = planner.bitmap_index
        table = planner.index.table
        num_pages = float(max(1, table.num_pages))
        num_rows = max(1, table.num_rows)
        candidate = bitmap.candidate_bitmap(query.polyhedron, query.memberships)
        if candidate is None:
            fraction = bitmap.estimate_fraction(query.polyhedron, query.memberships)
            if fraction is None:
                fraction = 1.0
            fraction = min(1.0, max(1.0 / num_rows, fraction + planner.selectivity_bias))
            return min(num_pages, max(1.0, fraction * num_rows))
        rows = candidate.to_indices()
        query.candidates = (bitmap, rows)
        pages = len(np.unique(rows // max(1, table.rows_per_page)))
        return min(num_pages, max(1.0, float(pages)))

    def run(self, planner, polyhedra, checks, member_filters, candidates):
        bitmap = planner.bitmap_index
        return batch_bitmap_query(
            bitmap,
            polyhedra,
            checks,
            memberships_list=member_filters,
            candidate_rows_list=[_rows_for(bitmap, c) for c in candidates],
        )


class _Hybrid(_Bitmap):
    """The bitmap prefilter restricted to the kd traversal's row ranges."""

    name = "hybrid"

    def price(self, planner, query: Pricing) -> float:
        """The independence-assumption intersection of the kd and bitmap
        page sets, plus a small constant for the extra traversal; never
        worse than either input."""
        kd, bitmap = query.costs[KD.name], query.costs[_BITMAP.name]
        overlap = max(1.0, kd * bitmap / max(1, planner.index.table.num_pages))
        return min(kd, bitmap, overlap) + 2.0

    def run(self, planner, polyhedra, checks, member_filters, candidates):
        bitmap = planner.bitmap_index
        return batch_hybrid_query(
            planner.index,
            bitmap,
            polyhedra,
            checks,
            memberships_list=member_filters,
            candidate_rows_list=[_rows_for(bitmap, c) for c in candidates],
        )


class _Scan(Engine):
    """The full table scan: every page, the paper's baseline above 0.25."""

    name = "scan"

    def price(self, planner, query: Pricing) -> float:
        return float(max(1, planner.index.table.num_pages))

    def run(self, planner, polyhedra, checks, member_filters, candidates):
        index = planner.index
        return polyhedron_batch_full_scan(
            index.table, index.dims, polyhedra, checks, memberships_list=member_filters
        )


KD = _KdTree()
_BITMAP = _Bitmap()
SCAN = _Scan()

#: Every engine, in the order a batch runs their member groups: each
#: engine is priced after the ones before it (the hybrid reads the kd
#: and bitmap prices), and the scan runs last.
ENGINES: tuple[Engine, ...] = (KD, _BITMAP, _Hybrid(), SCAN)

#: Every name an engine answers to: its own, plus the short ``kd``.
_NAMED = {"kd": KD, **{engine.name: engine for engine in ENGINES}}


def engine_named(name: str) -> Engine:
    """The registered engine called ``name`` (or its alias)."""
    if name not in _NAMED:
        raise ValueError(f"unknown engine {name!r}")
    return _NAMED[name]


def engine_choices() -> list[str]:
    """``auto`` plus every engine name and alias (CLI ``--engine``)."""
    return ["auto", *_NAMED]
