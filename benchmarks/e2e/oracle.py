"""A plain-numpy model table: the answer every workload is checked against.

The model holds the user's columns as flat arrays plus one ``alive``
mask, applies inserts and deletes in the order the workload issued them,
and answers a query by evaluating ``A x <= b`` and the IN-lists itself.
It shares no code with the engines it checks: not the page layout, not
the indexes, not even ``Polyhedron.contains_points`` -- only the
polyhedron's ``normals``/``offsets`` arrays are read.

Object ids are positions in the model arrays (the base table is loaded
with ``oid = 0..n-1`` and every inserted row continues the sequence), so
"which rows" is compared as a sorted oid array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ModelTable"]


class ModelTable:
    """The rows a from-scratch evaluation over the live table returns."""

    def __init__(self, columns: dict[str, np.ndarray], dims: list[str]):
        if not np.array_equal(columns["oid"], np.arange(len(columns["oid"]))):
            raise ValueError("the base table must carry oid = 0..n-1")
        self.dims = list(dims)
        self.columns = {name: np.array(arr) for name, arr in columns.items()}
        self.alive = np.ones(len(columns["oid"]), dtype=bool)

    @property
    def num_live(self) -> int:
        return int(self.alive.sum())

    def insert(self, columns: dict[str, np.ndarray]) -> None:
        """Append rows; their oids must continue the sequence."""
        start = len(self.alive)
        oids = np.asarray(columns["oid"])
        if not np.array_equal(oids, np.arange(start, start + len(oids))):
            raise ValueError("inserted oids must continue the model's sequence")
        for name in self.columns:
            self.columns[name] = np.concatenate([self.columns[name], columns[name]])
        self.alive = np.concatenate([self.alive, np.ones(len(oids), dtype=bool)])

    def delete(self, oids: np.ndarray) -> None:
        """Remove rows by object id."""
        self.alive[np.asarray(oids, dtype=np.int64)] = False

    def _tests(self, polyhedron, memberships: dict | None):
        """One ``rows -> bool mask`` per face and IN-list (``rows``: slice or indices)."""
        for normal, offset in zip(polyhedron.normals, polyhedron.offsets):
            if not np.isfinite(offset):
                continue
            terms = [(self.columns[self.dims[a]], normal[a]) for a in np.flatnonzero(normal)]
            yield lambda rows, terms=terms, offset=offset: (
                sum(column[rows] * weight for column, weight in terms) <= offset
            )
        for name, values in (memberships or {}).items():
            column, low, high = self.columns[name], values.min(), values.max()
            # The value range first: it leaves np.isin a few thousand rows.
            yield lambda rows, c=column, lo=low, hi=high: (c[rows] >= lo) & (c[rows] <= hi)
            yield lambda rows, c=column, v=values: np.isin(c[rows], v)

    def expected(self, polyhedron, memberships: dict | None = None) -> np.ndarray:
        """Sorted oids of the live rows inside the polyhedron and IN-lists.

        Tests are applied one at a time: as whole-column masks while most
        rows survive, as an index list once under a quarter do, so a
        selective query costs about two passes over the table instead of
        one per face.
        """
        mask = self.alive.copy()
        keep: np.ndarray | None = None
        for test in self._tests(polyhedron, memberships):
            if keep is not None:
                keep = keep[test(keep)]
                continue
            mask &= test(slice(None))
            if np.count_nonzero(mask) * 4 < len(mask):
                keep = np.flatnonzero(mask)
        return keep if keep is not None else np.flatnonzero(mask)

    def matches(self, polyhedron, memberships, oids: np.ndarray) -> bool:
        """Whether ``oids`` (any order) is exactly the expected row set."""
        return np.array_equal(np.sort(oids), self.expected(polyhedron, memberships))
