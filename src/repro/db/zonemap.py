"""Per-page zone maps: min/max synopses that let queries skip pages.

The paper's indexes prune at the *cell* level -- a kd-box or Voronoi cell
fully outside the query polyhedron is never visited.  Zone maps push the
same Figure 4 trichotomy down to the *page* level: for every page of a
table we persist the componentwise min and max of its numeric columns
(the page's bounding box in attribute space).  Because tables are
clustered (by kd leaf, or simply sorted), consecutive pages cover tight,
nearly disjoint boxes, and a polyhedron query can classify every page in
one vectorized pass *before any byte is read*:

* ``OUTSIDE`` pages are skipped entirely -- no storage read, no decode,
  no predicate;
* ``INSIDE`` pages need no per-point residual filter -- every row
  qualifies by construction;
* ``PARTIAL`` pages go through the ordinary read + filter path.

Classification is one call of the box kernel,
:meth:`~repro.geometry.halfspace.Polyhedron.classify_boxes`, over every
page box at once -- the same kernel the kd walk classifies its node
boxes with.

Zone maps are synopses, not indexes: they are built as pages are written
(:meth:`ZoneMap.observe_page`), dropped wholesale when the table is
mutated, and consulting them can only *remove* work -- a pruner derived
from a zone map is sound (never skips a page that holds a qualifying
row) and conservative (unknown pages and uncovered dimensions degrade to
``PARTIAL``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.db.pages import Page
from repro.geometry.boxes import Box, BoxRelation
from repro.geometry.halfspace import INSIDE, OUTSIDE, PARTIAL, RELATIONS, Polyhedron

__all__ = ["ZoneMap", "ZonePruner"]


class ZoneMap:
    """Per-page min/max synopses for the numeric columns of one table.

    Pages must be observed in page-id order (the order the table writer
    emits them); the map is append-only and immutable once built, which
    matches how tables work here -- any mutation drops and rebuilds.
    """

    def __init__(self, table_name: str, columns: Sequence[str]):
        if not columns:
            raise ValueError("a zone map needs at least one column")
        self.table_name = table_name
        self.columns: tuple[str, ...] = tuple(columns)
        self._mins: list[np.ndarray] = []
        self._maxs: list[np.ndarray] = []
        self._empty: list[bool] = []
        self._stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_pages(self) -> int:
        """How many pages have been observed."""
        return len(self._mins)

    def nbytes(self) -> int:
        """Approximate memory footprint of the synopses."""
        return 2 * 8 * len(self.columns) * len(self._mins)

    def observe_page(self, page: Page) -> None:
        """Fold one freshly written page into the map (id order enforced)."""
        if page.page_id != len(self._mins):
            raise ValueError(
                f"zone map for {self.table_name!r} expected page "
                f"{len(self._mins)}, got {page.page_id}"
            )
        if page.num_rows == 0:
            self._mins.append(np.zeros(len(self.columns)))
            self._maxs.append(np.zeros(len(self.columns)))
            self._empty.append(True)
        else:
            mins = np.empty(len(self.columns))
            maxs = np.empty(len(self.columns))
            for j, name in enumerate(self.columns):
                values = page.columns[name].astype(np.float64, copy=False)
                mins[j] = values.min()
                maxs[j] = values.max()
            self._mins.append(mins)
            self._maxs.append(maxs)
            self._empty.append(False)
        self._stacked = None

    def _matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mins, maxs, empty)``: ``(columns, pages)`` bounds and the empty-page mask.

        Stacked once per map state, column-major so that the rows a
        pruner picks are contiguous ``(d, pages)`` operands of the box
        kernel's face-major products.
        """
        if self._stacked is None:
            self._stacked = (
                np.stack(self._mins, axis=1),
                np.stack(self._maxs, axis=1),
                np.array(self._empty, dtype=bool),
            )
        return self._stacked

    def box(self, page_id: int) -> Box | None:
        """The page's bounding box in attribute space; ``None`` if empty."""
        if not 0 <= page_id < len(self._mins) or self._empty[page_id]:
            return None
        return Box(self._mins[page_id], self._maxs[page_id])

    def pruner(
        self, polyhedron: Polyhedron, dims: Sequence[str]
    ) -> "ZonePruner | None":
        """Classify every page against a polyhedron over ``dims``.

        ``dims`` names the columns the polyhedron's coordinates refer to,
        in order.  Returns ``None`` when the map does not cover every
        queried dimension -- the caller then scans without pruning, so a
        missing synopsis degrades performance, never correctness.
        """
        if len(dims) != polyhedron.dim:
            raise ValueError(
                f"polyhedron has dim {polyhedron.dim}, got {len(dims)} dims"
            )
        try:
            picks = [self.columns.index(name) for name in dims]
        except ValueError:
            return None
        if not self._mins:
            return ZonePruner(np.empty(0, dtype=np.int8))
        all_mins, all_maxs, empty = self._matrices()
        relations = polyhedron.classify_boxes(all_mins[picks].T, all_maxs[picks].T)
        # An empty page holds no qualifying rows regardless of geometry.
        relations[empty] = OUTSIDE
        return ZonePruner(relations)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form for the catalog file."""
        return {
            "table": self.table_name,
            "columns": list(self.columns),
            "mins": [row.tolist() for row in self._mins],
            "maxs": [row.tolist() for row in self._maxs],
            "empty": list(self._empty),
        }

    @staticmethod
    def from_dict(payload: dict) -> "ZoneMap":
        """Rebuild a map saved by :meth:`to_dict`."""
        zone_map = ZoneMap(payload["table"], payload["columns"])
        for mins, maxs, empty in zip(
            payload["mins"], payload["maxs"], payload["empty"]
        ):
            zone_map._mins.append(np.asarray(mins, dtype=np.float64))
            zone_map._maxs.append(np.asarray(maxs, dtype=np.float64))
            zone_map._empty.append(bool(empty))
        return zone_map

    def __repr__(self) -> str:
        return (
            f"ZoneMap(table={self.table_name!r}, columns={self.columns}, "
            f"pages={self.num_pages})"
        )


class ZonePruner:
    """Precomputed per-page verdicts for one (zone map, polyhedron) pair.

    Cheap to query inside scan loops (an array lookup); built once per
    query.  Pages the zone map never observed classify as ``PARTIAL`` --
    the conservative verdict that forces the ordinary read + filter path.
    """

    __slots__ = ("_relations",)

    def __init__(self, relations: np.ndarray):
        self._relations = relations

    def classify(self, page_id: int) -> BoxRelation:
        """The page's Figure 4 verdict against the query polyhedron."""
        if not 0 <= page_id < len(self._relations):
            return BoxRelation.PARTIAL
        return RELATIONS[self._relations[page_id]]

    def surviving(self, page_ids: Iterable[int]) -> list[int]:
        """The subset of ``page_ids`` that are not OUTSIDE, in order."""
        return [
            page_id
            for page_id in page_ids
            if self.classify(page_id) is not BoxRelation.OUTSIDE
        ]

    def counts(self) -> dict[str, int]:
        """How many pages fall in each class (observability for tests)."""
        return {
            "outside": int((self._relations == OUTSIDE).sum()),
            "partial": int((self._relations == PARTIAL).sum()),
            "inside": int((self._relations == INSIDE).sum()),
        }
