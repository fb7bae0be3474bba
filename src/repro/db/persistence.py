"""Catalog persistence: reattach a disk-backed database.

:class:`~repro.db.storage.FileStorage` already keeps every page on
disk; what a restart loses is the *catalog* -- which tables exist, their
schemas, clustering, and page geometry.  :func:`save_catalog` writes
that metadata as JSON next to the pages, and :func:`attach_database`
rebuilds a :class:`~repro.db.catalog.Database` whose tables read the
existing pages (indexes are rebuilt by their owners; the paper's
database is static, so "reopen and re-register" is the whole recovery
story under the simple recovery model).
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from repro.db.catalog import Database
from repro.db.storage import FileStorage
from repro.db.table import ColumnSpec, Table
from repro.db.zonemap import ZoneMap
from repro.ingest.wal import IngestWal

__all__ = ["save_catalog", "attach_database", "CATALOG_FILENAME"]

CATALOG_FILENAME = "_catalog.json"


def save_catalog(database: Database) -> Path:
    """Write the table metadata of a file-backed database to disk."""
    storage = database.storage
    if not isinstance(storage, FileStorage):
        raise TypeError("only file-backed databases can persist a catalog")
    tables = [database.table(n) for n in database.table_names()]
    catalog = {
        "version": 1,
        "tables": [
            {
                "name": table.name,
                # A merged table's pages live under its generation
                # namespace (``<name>@g<n>``); reattach must read them
                # from there.  Omitted when equal to the logical name,
                # so pre-ingest catalogs stay byte-identical.
                **(
                    {"physical_name": table.physical_name}
                    if table.physical_name != table.name
                    else {}
                ),
                "num_rows": table.num_rows,
                "rows_per_page": table.rows_per_page,
                "clustered_by": list(table.clustered_by),
                "columns": [
                    {"name": spec.name, "dtype": spec.dtype.str}
                    for spec in table.specs
                ],
            }
            for table in tables
        ],
        # Zone maps are synopses of immutable pages, so they persist with
        # the schema; absent for tables created with zone maps disabled
        # (and in catalogs written before the key existed).  Keyed by the
        # *physical* namespace: each merge generation regenerates its own.
        "zone_maps": [
            table.zone_map().to_dict()
            for table in tables
            if table.zone_map() is not None
        ],
        # Bitmap indexes serialize whole (bin edges + compressed
        # bitmaps): unlike kd-trees, whose owners rebuild them from the
        # clustered pages, the equi-depth bin edges are a property of
        # the build-time data distribution and must round-trip exactly
        # for plans to stay stable across a restart.  Absent in catalogs
        # written before the key existed.
        "bitmap_indexes": [
            index.to_dict()
            for key, index in sorted(database.registered_indexes().items())
            if key.endswith(".bitmap")
        ],
        # Kd-trees persist as a *layout* (a few integers), not a
        # serialized tree: their node pages are already on disk under
        # the index namespace, so reattach reopens them page-for-page --
        # the restart pays no rebuild and no full deserialize.  Absent
        # in catalogs written before the key existed.
        "kd_indexes": [
            {
                "name": index.table_name,
                "table": index.table.physical_name,
                "dims": index.dims,
                "layout": dataclasses.asdict(index.tree.layout),
            }
            for key, index in sorted(database.registered_indexes().items())
            if key.endswith(".kdtree")
        ],
        # Planner calibration: the per-engine EWMA page-cost constants
        # each table's planner learned while serving.  Persisting them
        # means a reattached database plans with warmed constants
        # instead of re-learning from the neutral 1.0s.  Absent in
        # catalogs written before the key existed.
        "planner_calibrations": database.planner_calibrations(),
    }
    path = storage.root / CATALOG_FILENAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=2)
    return path


def attach_database(
    root: str | os.PathLike,
    buffer_pages: int | None = 1024,
    wal_frames: list[bytes] | None = None,
    on_corrupt: str = "skip",
) -> Database:
    """Reopen a persisted database: pages from disk, catalog from JSON.

    ``wal_frames`` is the surviving ingest write-ahead log (see
    :meth:`~repro.ingest.wal.IngestWal.frames`); when given, every
    logical record past the last committed merge is re-applied to the
    reopened tables, so acknowledged inserts/deletes that had not been
    merged at crash time come back.  ``on_corrupt`` is forwarded to
    :meth:`~repro.ingest.wal.IngestWal.replay`.
    """
    root = Path(root)
    path = root / CATALOG_FILENAME
    if not path.is_file():
        raise FileNotFoundError(f"no catalog at {path}")
    with open(path, encoding="utf-8") as fh:
        catalog = json.load(fh)
    if catalog.get("version") != 1:
        raise ValueError(f"unsupported catalog version {catalog.get('version')!r}")
    database = Database.on_disk(root, buffer_pages=buffer_pages)
    for meta in catalog["tables"]:
        specs = [
            ColumnSpec(col["name"], np.dtype(col["dtype"]))
            for col in meta["columns"]
        ]
        table = Table(
            database,
            meta["name"],
            specs,
            meta["num_rows"],
            meta["rows_per_page"],
            clustered_by=tuple(meta["clustered_by"]),
            physical_name=meta.get("physical_name"),
        )
        stored = database.storage.num_pages(table.physical_name)
        if stored != table.num_pages:
            raise ValueError(
                f"table {meta['name']!r} expects {table.num_pages} pages, "
                f"found {stored} on disk"
            )
        database.adopt_table(table)
    physical_names = {
        database.table(n).physical_name for n in database.table_names()
    }
    for payload in catalog.get("zone_maps", ()):
        # Zone maps are keyed by physical namespace (pre-ingest catalogs:
        # the logical name, which equals the physical one).
        if payload["table"] in physical_names:
            database.register_zone_map(ZoneMap.from_dict(payload))
    for payload in catalog.get("bitmap_indexes", ()):
        # Skip entries whose physical generation is not the one that
        # survived on disk (a crash between page flush and catalog write
        # can leave them disagreeing); the owner rebuilds on demand.
        if payload["table"] in physical_names:
            from repro.bitmap.index import BitmapIndex

            database.register_index(
                f"{payload['name']}.bitmap",
                BitmapIndex.from_dict(database, payload),
            )
    for payload in catalog.get("kd_indexes", ()):
        # Reattach a paged kd-tree without reading a node page: the
        # layout names the page count, and the pages stream in lazily
        # on first traversal.  Skipped when the physical generation or
        # its node pages did not survive intact -- the owner rebuilds.
        from repro.core.kdpaged import PagedKdTree, PagedTreeLayout
        from repro.core.kdtree import KdTreeIndex
        from repro.db.storage import index_namespace

        if payload["table"] not in physical_names:
            continue
        layout = PagedTreeLayout(**payload["layout"])
        stored = database.storage.num_pages(index_namespace(payload["table"]))
        if stored != layout.num_pages:
            continue
        tree = PagedKdTree(database, payload["table"], layout)
        database.register_index(
            f"{payload['name']}.kdtree",
            KdTreeIndex(
                database,
                database.table(payload["name"]),
                tree,
                list(payload["dims"]),
            ),
        )
    database.restore_planner_calibrations(
        catalog.get("planner_calibrations", {})
    )
    if wal_frames is not None:
        database.ingest_wal = IngestWal(wal_frames)
        database.ingest_wal.replay(database, on_corrupt=on_corrupt)
    return database
