"""Per-table ingest state and the policy that decides when to merge.

The :class:`IngestManager` hangs off every :class:`~repro.db.catalog.Database`
as ``db.ingest`` and owns one :class:`IngestState` per mutated table:
the table's delta tier, its layout generation, and the writer lock that
serializes WAL append + delta apply (and excludes writers, not readers,
during a merge).  ``Table.insert_rows`` / ``Table.delete_rows`` are thin
wrappers over :meth:`IngestManager.insert` / :meth:`delete`.

Policy lives here too: :meth:`maybe_merge` triggers the out-of-place
merge of :mod:`repro.ingest.merge` once a table's *delta fraction*
(pending inserts + tombstones over main rows) crosses a threshold, and
:class:`MergeDaemon` runs that check on a background thread -- the
"nightly load" loop of an SDSS-style survey.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.ingest.delta import DELTA_BASE, DeltaTier

__all__ = ["IngestManager", "IngestState", "MergeDaemon"]

#: Default delta fraction past which :meth:`IngestManager.maybe_merge` fires.
DEFAULT_MERGE_THRESHOLD = 0.2


class IngestState:
    """Everything the write path knows about one table generation."""

    def __init__(self, table_name: str, delta: DeltaTier, generation: int = 0):
        self.table_name = table_name
        self.delta = delta
        self.generation = generation
        #: Serializes WAL append + delta apply, and excludes writers
        #: (never readers) while a merge drains the tier.
        self.write_lock = threading.RLock()

    @property
    def layout_version(self) -> str:
        """``g<generation>.e<epoch>``: changes on every write and merge."""
        return f"g{self.generation}.e{self.delta.epoch}"


class IngestManager:
    """The write-path front door of one database."""

    def __init__(self, database):
        self._db = database
        self._states: dict[str, IngestState] = {}
        self._lock = threading.Lock()
        #: Physical namespaces superseded two merges ago, retired at the
        #: next merge (one-generation grace for in-flight queries).
        self._pending_retire: dict[str, list[str]] = {}

    # -- state plumbing ------------------------------------------------------

    def state(self, name: str) -> IngestState | None:
        """The table's ingest state, or ``None`` if it was never written."""
        return self._states.get(name)

    def ensure_state(self, name: str) -> IngestState:
        """Get or create the ingest state of the *current* generation."""
        with self._lock:
            state = self._states.get(name)
            if state is not None:
                return state
            table = self._db.table(name)
            state = IngestState(name, self._new_delta(table), generation=0)
            self._states[name] = state
            table.bind_ingest_state(state)
            return state

    def _new_delta(self, table) -> DeltaTier:
        dtypes = {spec.name: spec.dtype for spec in table.specs}
        index = self._db.index_if_exists(f"{table.name}.kdtree")
        dims = tuple(index.dims) if index is not None else ()
        return DeltaTier(dtypes, dims=dims, base_row_id=DELTA_BASE)

    def install_generation(self, name: str, table, generation: int) -> IngestState:
        """Attach a fresh, empty state to a just-swapped table generation.

        Called by the merge under the catalog lock.  The superseded
        state stays bound (frozen) to the old table object so in-flight
        queries that resolved the old layout keep their view.
        """
        with self._lock:
            state = IngestState(name, self._new_delta(table), generation=generation)
            self._states[name] = state
            table.bind_ingest_state(state)
            return state

    def forget(self, name: str) -> None:
        """Drop a table's ingest bookkeeping (table dropped)."""
        with self._lock:
            self._states.pop(name, None)
            self._pending_retire.pop(name, None)

    def take_retirees(self, name: str, superseded: str) -> list[str]:
        """Swap bookkeeping for generation retirement.

        Returns the physical namespaces safe to drop *now* (superseded
        two merges ago) and queues ``superseded`` (the generation being
        replaced by the current merge) for the next round.
        """
        with self._lock:
            due = self._pending_retire.get(name, [])
            self._pending_retire[name] = [superseded]
            return due

    # -- the write API -------------------------------------------------------

    def insert(self, name: str, data: dict, log: bool = True) -> np.ndarray:
        """Insert rows into the table's delta tier; returns their row ids.

        WAL-first: the insert record is durable before the delta tier
        (and therefore any reader) sees the rows.  The returned ids live
        in the delta band (``>= DELTA_BASE``) until a merge folds the
        rows into the main layout.
        """
        state = self.ensure_state(name)
        with state.write_lock:
            table = self._db.table(name)
            columns = self._prepare_insert(table, data)
            if log and self._db.ingest_wal is not None:
                self._db.ingest_wal.append_insert(name, columns)
            row_ids = state.delta.insert(columns)
        self._db._notify_mutation(name)
        return row_ids

    def delete(self, name: str, row_ids, log: bool = True) -> int:
        """Tombstone rows by id (main-table or delta-band); returns count."""
        state = self.ensure_state(name)
        ids = np.atleast_1d(np.asarray(row_ids, dtype=np.int64))
        with state.write_lock:
            table = self._db.table(name)
            main = ids[ids < DELTA_BASE]
            if len(main) and (main.min() < 0 or main.max() >= table.num_rows):
                raise IndexError(
                    f"delete row ids out of range for {name!r} "
                    f"({table.num_rows} rows)"
                )
            if log and self._db.ingest_wal is not None:
                self._db.ingest_wal.append_delete(name, ids)
            deleted_main, deleted_delta = state.delta.delete(ids)
        self._db._notify_mutation(name)
        return deleted_main + deleted_delta

    def _prepare_insert(self, table, data: dict) -> dict[str, np.ndarray]:
        """Cast the caller's columns and synthesize ``kd_leaf`` if owed."""
        columns: dict[str, np.ndarray] = {}
        for spec in table.specs:
            if spec.name in data:
                columns[spec.name] = np.ascontiguousarray(
                    data[spec.name], dtype=spec.dtype
                )
        missing = [
            spec.name for spec in table.specs if spec.name not in columns
        ]
        index = self._db.index_if_exists(f"{table.name}.kdtree")
        if missing == ["kd_leaf"] and index is None:
            raise KeyError(
                f"insert into {table.name!r} missing 'kd_leaf' and no "
                "kd index is registered to synthesize it"
            )
        if missing and missing != ["kd_leaf"]:
            raise KeyError(f"insert into {table.name!r} missing columns {missing}")
        if index is not None:
            # Checked whether or not the caller brought its own kd_leaf: a
            # NaN coordinate fails every halfspace test, so the row would
            # count as live yet match no query.
            points = np.column_stack(
                [np.asarray(columns[d], dtype=np.float64) for d in index.dims]
            )
            if not np.all(np.isfinite(points)):
                raise ValueError("inserted coordinates must be finite")
            if missing:
                from repro.core.kdpaged import post_order_ids

                tree = index.tree
                columns["kd_leaf"] = post_order_ids(
                    tree.leaf_of_points(points), tree.num_levels
                )
        extra = set(data) - {spec.name for spec in table.specs}
        if extra:
            raise KeyError(
                f"insert into {table.name!r} has unknown columns {sorted(extra)}"
            )
        return columns

    # -- merge policy --------------------------------------------------------

    def delta_fraction(self, name: str) -> float:
        """Pending churn (inserts + tombstones) relative to main rows."""
        state = self.state(name)
        if state is None:
            return 0.0
        table = self._db.table(name)
        return state.delta.churn / max(1, table.num_rows)

    def merge(self, name: str, **kwargs):
        """Force an out-of-place merge now; see :func:`merge_table`."""
        from repro.ingest.merge import merge_table

        return merge_table(self._db, name, **kwargs)

    def maybe_merge(
        self, name: str, threshold: float = DEFAULT_MERGE_THRESHOLD, **kwargs
    ):
        """Merge iff the delta fraction crossed ``threshold``.

        Returns the :class:`~repro.ingest.merge.MergeReport` when a merge
        ran, else ``None``.
        """
        if self.delta_fraction(name) >= threshold and (
            self.state(name) is not None and self.state(name).delta.churn > 0
        ):
            return self.merge(name, **kwargs)
        return None

    def merge_all(self, threshold: float = 0.0) -> list:
        """Merge every tracked table whose fraction crossed ``threshold``."""
        reports = []
        for name in list(self._states):
            state = self._states.get(name)
            if state is None or state.delta.churn == 0:
                continue
            if self.delta_fraction(name) >= threshold:
                reports.append(self.merge(name))
        return reports


class MergeDaemon:
    """A background thread running :meth:`IngestManager.maybe_merge`.

    The "background merge" of the tentpole: writers keep landing rows in
    the delta while the daemon periodically drains tables whose read
    amplification crossed the threshold.  Queries are never blocked --
    the swap is atomic under the catalog lock and in-flight queries
    finish on the layout they resolved.
    """

    def __init__(
        self,
        database,
        tables: list[str] | None = None,
        threshold: float = DEFAULT_MERGE_THRESHOLD,
        interval_s: float = 0.05,
    ):
        self._db = database
        self._tables = tables
        self._threshold = threshold
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.merges = 0
        self.errors: list[Exception] = []

    def _loop(self) -> None:
        while not self._stop.is_set():
            names = (
                self._tables
                if self._tables is not None
                else list(self._db.ingest._states)
            )
            for name in names:
                try:
                    if self._db.ingest.maybe_merge(name, self._threshold):
                        self.merges += 1
                except Exception as exc:  # keep the daemon alive
                    self.errors.append(exc)
            self._stop.wait(self._interval_s)

    def start(self) -> "MergeDaemon":
        """Spin up the merge thread; idempotent."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="ingest-merge-daemon", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the merge thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MergeDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
