"""The background merge: drain the delta out-of-place and swap layouts.

Waffle-style out-of-place reorganization (PAPERS.md: Moti & Papadias):
the merge never touches the pages in-flight queries are reading.  It

1. fences the merge in the ingest WAL (``merge_begin``),
2. reads the live main rows (tombstones dropped) plus the live delta
   inserts,
3. bulk-loads a *new generation* of the table through the clustered
   loader (:func:`~repro.core.kdtree.cluster` then
   :func:`~repro.core.kdtree.install`) -- a fresh median-split kd-tree
   over old + new points, a freshly clustered page file and its node
   pages under the physical namespace ``<name>@g<generation>``, and
   regenerated zone maps (``Table.create`` builds them as it emits
   pages),
4. swaps the new generation in atomically under the catalog lock
   (table, index, and a fresh empty delta tier in one critical
   section), bumping ``layout_version`` so every fingerprint and cache
   above invalidates through the existing mutation listeners,
5. commits the fence (``merge_commit``) and truncates the table's
   redo records -- the merged generation carries them now.

In-flight queries that already resolved the old table object keep
reading its pages and its (frozen) delta tier; the superseded physical
namespace is retired one merge later, giving them a full merge cycle
to finish.  Writers are excluded for the duration (the tier being
drained must not move), readers never are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ingest.delta import DeltaSnapshot

__all__ = ["MergeReport", "merge_table"]


@dataclass
class MergeReport:
    """What one merge did, for logs, benchmarks, and tests."""

    table: str
    generation: int
    rows_before: int
    rows_after: int
    delta_rows_applied: int
    tombstones_dropped: int
    seconds: float
    merged: bool = True

    def as_dict(self) -> dict:
        """JSON-friendly form (crosses the worker wire protocol)."""
        return {
            "table": self.table,
            "generation": self.generation,
            "rows_before": self.rows_before,
            "rows_after": self.rows_after,
            "delta_rows_applied": self.delta_rows_applied,
            "tombstones_dropped": self.tombstones_dropped,
            "seconds": self.seconds,
            "merged": self.merged,
        }


def _live_main_columns(table, snapshot: DeltaSnapshot) -> dict[str, np.ndarray]:
    """All main rows minus tombstoned ones, read page by page (raw)."""
    names = table.column_names
    chunks: dict[str, list[np.ndarray]] = {c: [] for c in names}
    kept = 0
    for page in table.scan():
        keep = snapshot.alive(page.row_ids())
        kept += int(keep.sum())
        for c in names:
            chunks[c].append(page.columns[c][keep])
    if not kept:
        return {c: np.empty(0, dtype=table.dtype_of(c)) for c in names}
    return {c: np.concatenate(chunks[c]) for c in names}


def merge_table(
    database,
    name: str,
    num_levels: int | None = None,
    rows_per_page: int | None = None,
) -> MergeReport:
    """Drain ``name``'s delta into a new bulk-loaded generation.

    No-op (``merged=False``) when the table has no pending churn.
    Raises ``ValueError`` if the merge would leave a kd-indexed table
    empty -- an empty point set cannot carry a kd-tree, and the caller
    should drop the table instead.  A write fault while loading the new
    generation re-raises with nothing of it left behind: the generation,
    the delta and the served index stay as they were, and the unpaired
    ``merge_begin`` is invisible to WAL replay.
    """
    from repro.core.kdtree import cluster, install
    from repro.db.table import Table

    manager = database.ingest
    state = manager.state(name)
    table = database.table(name)
    if state is None or state.delta.churn == 0:
        return MergeReport(
            table=name,
            generation=state.generation if state else 0,
            rows_before=table.num_rows,
            rows_after=table.num_rows,
            delta_rows_applied=0,
            tombstones_dropped=0,
            seconds=0.0,
            merged=False,
        )

    started = time.monotonic()
    with state.write_lock:  # writers wait; readers keep going
        snapshot = state.delta.snapshot()
        new_generation = state.generation + 1
        wal = database.ingest_wal
        if wal is not None:
            wal.append_merge_begin(name, new_generation)

        live = _live_main_columns(table, snapshot)
        merged = {
            c: np.concatenate([live[c], snapshot.columns[c]])
            for c in table.column_names
        }
        num_rows = len(merged[table.column_names[0]])
        index = database.index_if_exists(f"{name}.kdtree")
        indexes = {}
        drop_indexes: list[str] = []
        physical = f"{name}@g{new_generation}"
        per_page = rows_per_page if rows_per_page is not None else table.rows_per_page
        if index is not None:
            if num_rows == 0:
                raise ValueError(
                    f"merge would leave kd-indexed table {name!r} empty; "
                    "drop the table instead"
                )
            # Median-split rebuild over old + new points.  Levels follow
            # the old tree unless the table shrank below its capacity.
            cap = int(np.floor(np.log2(max(num_rows, 1)))) + 1
            levels = (
                min(index.tree.num_levels, cap) if num_levels is None
                else num_levels
            )
            clustering = cluster(
                merged, index.dims, levels=max(1, levels),
                axis_policy=index.tree.axis_policy,
            )
            # The bitmap is rebuilt over the new generation so it swaps
            # in atomically with the table and kd-tree.  If its rebuild
            # faults the bitmap is dropped entirely -- a stale entry
            # would start raising once the old physical namespace
            # retires, whereas no entry just degrades the planner to
            # kd/scan.
            old_bitmap = database.index_if_exists(f"{name}.bitmap")
            new_index, bitmap = install(
                database, name, merged, index.dims, clustering,
                rows_per_page=per_page,
                physical_name=physical,
                bitmap_bins=None if old_bitmap is None else old_bitmap.num_bins,
            )
            new_table = new_index.table
            indexes[f"{name}.kdtree"] = new_index
            if bitmap is not None:
                indexes[f"{name}.bitmap"] = bitmap
            elif old_bitmap is not None:
                drop_indexes.append(f"{name}.bitmap")
        else:
            new_table = Table.create(
                database,
                name,
                merged,
                rows_per_page=per_page,
                clustered_by=table.clustered_by,
                physical_name=physical,
            )

        retire = manager.take_retirees(name, table.physical_name)
        database.swap_table(
            name, new_table, indexes=indexes, generation=new_generation,
            retire=retire,
        )
        for key in drop_indexes:
            database.drop_index(key)
        state.delta.freeze()
        if wal is not None:
            commit_seq = wal.append_merge_commit(name, new_generation)
            wal.truncate_table(name, commit_seq)

    return MergeReport(
        table=name,
        generation=new_generation,
        rows_before=table.num_rows,
        rows_after=num_rows,
        delta_rows_applied=snapshot.num_rows,
        tombstones_dropped=snapshot.num_tombstones,
        seconds=time.monotonic() - started,
        merged=True,
    )
