"""The database: storage + buffer pool + catalog of tables, indexes, procs.

A :class:`Database` is the top-level handle users create first::

    db = Database.in_memory(buffer_pages=512)
    table = db.create_table("magnitudes", {"u": u, "g": g, ...})

Spatial indexes register themselves in the catalog so stored procedures
can find them by name, mirroring how the paper's CLR procedures resolve
the index tables that live next to the data.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.db.buffer_pool import (
    DEFAULT_DECODED_BYTES,
    DEFAULT_INDEX_CACHE_BYTES,
    DEFAULT_READAHEAD_PAGES,
    BufferPool,
)
from repro.db.faults import FaultInjector, FaultyStorage, RetryPolicy
from repro.db.procedures import ProcedureRegistry
from repro.db.stats import IOStats
from repro.db.storage import FileStorage, MemoryStorage, Storage, index_namespace
from repro.db.table import DEFAULT_ROWS_PER_PAGE, Table
from repro.db.zonemap import ZoneMap
from repro.ingest.manager import IngestManager
from repro.ingest.wal import IngestWal

__all__ = ["Database", "DatabaseOptions"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatabaseOptions:
    """Picklable open-options of a :class:`Database`.

    A plain value object capturing every constructor knob except the
    storage backend itself, so a worker *process* can be handed the
    parent's configuration (buffer budget, retry policy, I/O
    acceleration toggles, optionally a seeded
    :class:`~repro.db.faults.FaultInjector`) and open an identically
    behaving database on its side of the fork/spawn boundary.
    """

    buffer_pages: int | None = 1024
    retry: RetryPolicy | None = None
    zone_maps: bool = True
    decoded_cache_bytes: int | None = DEFAULT_DECODED_BYTES
    readahead_pages: int = DEFAULT_READAHEAD_PAGES
    #: Byte budget of each paged kd-tree's decoded node cache
    #: (:mod:`repro.core.kdpaged`).
    index_cache_bytes: int = DEFAULT_INDEX_CACHE_BYTES
    #: When set, the opened storage is wrapped in a
    #: :class:`~repro.db.faults.FaultyStorage` around this injector.
    fault: FaultInjector | None = None

    def open(self, storage: Storage | None = None) -> "Database":
        """Open a database with these options (in-memory by default)."""
        if storage is None:
            storage = MemoryStorage()
        if self.fault is not None:
            storage = FaultyStorage(storage, self.fault)
        return Database(
            storage,
            buffer_pages=self.buffer_pages,
            retry=self.retry,
            zone_maps=self.zone_maps,
            decoded_cache_bytes=self.decoded_cache_bytes,
            readahead_pages=self.readahead_pages,
            index_cache_bytes=self.index_cache_bytes,
        )


class Database:
    """A catalog of tables and indexes over one storage backend.

    ``retry`` is the buffer pool's backoff policy for transient/corrupt
    page reads (``None`` keeps the default policy).  The I/O acceleration
    knobs -- ``zone_maps`` (per-page min/max synopses built at table
    creation), ``decoded_cache_bytes`` (the buffer pool's decoded-page
    cache budget; ``0`` disables) and ``readahead_pages`` (coalescing
    window of scan read-ahead; ``0`` disables) -- all default on and
    exist so benchmarks and differential tests can toggle each feature
    independently.
    """

    def __init__(
        self,
        storage: Storage,
        buffer_pages: int | None = 1024,
        retry: RetryPolicy | None = None,
        zone_maps: bool = True,
        decoded_cache_bytes: int | None = DEFAULT_DECODED_BYTES,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
        index_cache_bytes: int = DEFAULT_INDEX_CACHE_BYTES,
    ):
        self.storage = storage
        # Picklable record of how this database was opened, so shard
        # worker processes can reproduce the configuration exactly (the
        # fault injector, if any, lives on the storage wrapper and is
        # recorded by whoever does the wrapping).
        self.options = DatabaseOptions(
            buffer_pages=buffer_pages,
            retry=retry,
            zone_maps=zone_maps,
            decoded_cache_bytes=decoded_cache_bytes,
            readahead_pages=readahead_pages,
            index_cache_bytes=index_cache_bytes,
        )
        self.buffer_pool = BufferPool(
            storage,
            capacity_pages=buffer_pages,
            retry=retry if retry is not None else RetryPolicy(),
            decoded_bytes=decoded_cache_bytes,
            readahead_pages=readahead_pages,
        )
        self.procedures = ProcedureRegistry(self)
        self.zone_maps_enabled = zone_maps
        self._zone_maps: dict[str, ZoneMap] = {}
        #: Per-table planner calibration snapshots (persisted in the
        #: catalog so a reattached database keeps its learned per-engine
        #: page-cost constants).
        self._planner_calibrations: dict[str, dict] = {}
        #: Tables whose calibration came from a catalog reattach; only
        #: these warm new planners (see :meth:`planner_calibration`).
        self._restored_calibrations: set[str] = set()
        self._tables: dict[str, Table] = {}
        self._indexes: dict[str, Any] = {}
        self._mutation_listeners: list[Any] = []
        #: The catalog lock: generation swaps (table + index + delta
        #: tier) happen atomically under it, so a reader either sees the
        #: whole old layout or the whole new one.
        self.lock = threading.RLock()
        #: The logical write-ahead log of the ingest path (WAL-first).
        self.ingest_wal = IngestWal()
        #: Per-table delta tiers and merge policy.
        self.ingest = IngestManager(self)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def in_memory(buffer_pages: int | None = 1024, **options: Any) -> "Database":
        """Database over in-process page storage (default for tests)."""
        return Database(MemoryStorage(), buffer_pages=buffer_pages, **options)

    @staticmethod
    def on_disk(
        root: str | os.PathLike, buffer_pages: int | None = 1024, **options: Any
    ) -> "Database":
        """Database over file-per-page storage (real disk round trips)."""
        return Database(FileStorage(root), buffer_pages=buffer_pages, **options)

    # -- tables -----------------------------------------------------------

    def create_table(
        self,
        name: str,
        data: dict[str, np.ndarray],
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
        clustered_by: tuple[str, ...] | list[str] = (),
    ) -> Table:
        """Create and register a table; fails if the name is taken."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table.create(
            self, name, data, rows_per_page=rows_per_page, clustered_by=clustered_by
        )
        self._tables[name] = table
        self._notify_mutation(name)
        return table

    def adopt_table(self, table: Table) -> None:
        """Register a table object whose pages already exist in storage.

        Used by catalog persistence (reattaching a disk database) --
        normal creation goes through :meth:`create_table`.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r} in catalog") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def drop_table(self, name: str) -> None:
        """Remove a table, its pages, and any indexes registered for it."""
        with self.lock:
            table = self._tables.pop(name, None)
            namespaces = {name}
            if table is not None:
                namespaces.add(table.physical_name)
            state = self.ingest.state(name)
            if state is not None:
                namespaces.update(self.ingest.take_retirees(name, name))
            self.ingest.forget(name)
            for namespace in namespaces:
                self.drop_generation(namespace)
            stale = [
                k
                for k, v in self._indexes.items()
                if getattr(v, "table_name", None) == name
            ]
            for key in stale:
                self._teardown_index(self._indexes.pop(key))
        self._notify_mutation(name)

    def swap_table(
        self,
        name: str,
        table: Table,
        indexes: dict[str, Any] | None = None,
        generation: int | None = None,
        retire: list[str] | None = None,
    ) -> Table:
        """Atomically replace a table's layout with a new generation.

        Under the catalog lock, installs the new table object, replaces
        the given indexes, attaches a fresh delta tier for the new
        generation, and drops long-superseded physical namespaces
        (``retire``).  In-flight queries holding the old table object
        keep reading its (still present) pages and its frozen delta.
        Returns the superseded table.
        """
        with self.lock:
            if name not in self._tables:
                raise KeyError(f"no table {name!r} in catalog")
            old = self._tables[name]
            self._tables[name] = table
            for key, index in (indexes or {}).items():
                self._indexes[key] = index
            if generation is not None:
                self.ingest.install_generation(name, table, generation)
            for namespace in retire or ():
                if namespace != table.physical_name:
                    self.drop_generation(namespace)
        self._notify_mutation(name)
        return old

    def drop_generation(self, physical_name: str) -> None:
        """Drop one physical layout: its data and index node pages, both
        buffer-pool levels' copies of them, and its zone map.

        Data and node pages always go together: a stale node page served
        after its data pages are gone would route reads through a dead
        layout.  Used for dropped tables, retired merge generations and
        loads that a write fault aborted.
        """
        with self.lock:
            self._zone_maps.pop(physical_name, None)
            for namespace in (physical_name, index_namespace(physical_name)):
                self.buffer_pool.invalidate(namespace)
                self.storage.drop_namespace(namespace)

    # -- mutation listeners -------------------------------------------------

    def add_mutation_listener(self, listener) -> None:
        """Register ``listener(table_name)`` to run on catalog mutations
        (table create/drop, ingest writes, merges).

        The query service's result cache and the planner's probe cache
        subscribe here so cached state never outlives the layout it was
        computed from.  Adding the same listener twice is a no-op: a
        listener fires once per mutation no matter how many components
        re-registered it.
        """
        if not any(existing is listener for existing in self._mutation_listeners):
            self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener) -> None:
        """Unregister a previously added mutation listener (no-op if absent)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, table_name: str) -> None:
        # Listener isolation: one misbehaving subscriber must not stop
        # cache invalidation for the others -- a swallowed notification
        # would leave a stale cache serving rows from a dead layout.
        for listener in list(self._mutation_listeners):
            try:
                listener(table_name)
            except Exception:
                logger.exception(
                    "mutation listener %r failed for table %r", listener, table_name
                )

    def table_names(self) -> list[str]:
        """Names of all registered tables."""
        return sorted(self._tables)

    # -- zone maps -----------------------------------------------------------

    def register_zone_map(self, zone_map: ZoneMap) -> None:
        """Attach per-page synopses to a table (replaces any existing map)."""
        self._zone_maps[zone_map.table_name] = zone_map

    def zone_map(self, table_name: str) -> ZoneMap | None:
        """The table's zone map, or ``None`` when absent or disabled."""
        if not self.zone_maps_enabled:
            return None
        return self._zone_maps.get(table_name)

    def zone_map_names(self) -> list[str]:
        """Names of tables that carry zone maps."""
        return sorted(self._zone_maps)

    # -- planner calibration ------------------------------------------------

    def save_planner_calibration(self, table_name: str, snapshot: dict) -> None:
        """Record a planner's learned cost state for one table.

        Called by :class:`~repro.core.planner.QueryPlanner` whenever its
        EWMA calibration moves; :func:`repro.db.persistence.save_catalog`
        writes the latest snapshot so a reattach starts warm.
        """
        with self.lock:
            self._planner_calibrations[table_name] = dict(snapshot)

    def planner_calibration(self, table_name: str) -> dict | None:
        """A *restored* calibration snapshot for a table, if any.

        Only snapshots installed by
        :meth:`restore_planner_calibrations` (a catalog reattach) are
        handed out: live snapshots are persisted but never shared
        between planner instances in the same process, so a fresh
        planner over a live database still starts from the neutral
        constants its tests and its operators expect.
        """
        with self.lock:
            if table_name not in self._restored_calibrations:
                return None
            snapshot = self._planner_calibrations.get(table_name)
            return dict(snapshot) if snapshot is not None else None

    def planner_calibrations(self) -> dict[str, dict]:
        """All stored calibration snapshots (catalog persistence)."""
        with self.lock:
            return {
                name: dict(snapshot)
                for name, snapshot in self._planner_calibrations.items()
            }

    def restore_planner_calibrations(self, snapshots: dict[str, dict]) -> None:
        """Install snapshots loaded from a persisted catalog.

        Restored snapshots (and only those) warm the next planner built
        over their table -- see :meth:`planner_calibration`.
        """
        with self.lock:
            for name, snapshot in snapshots.items():
                self._planner_calibrations[name] = dict(snapshot)
                self._restored_calibrations.add(name)

    # -- indexes ------------------------------------------------------------

    def register_index(self, name: str, index: Any) -> None:
        """Register a spatial index object under a catalog name."""
        if name in self._indexes:
            raise ValueError(f"index {name!r} already exists")
        self._indexes[name] = index

    def index(self, name: str) -> Any:
        """Look up an index by name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(f"no index {name!r} in catalog") from None

    def index_if_exists(self, name: str) -> Any | None:
        """Look up an index by name, ``None`` when absent.

        Long-lived components (planners) resolve their index through
        this on every query so a merge's index swap takes effect without
        re-wiring them.
        """
        return self._indexes.get(name)

    def index_names(self) -> list[str]:
        """Names of all registered indexes."""
        return sorted(self._indexes)

    def drop_index(self, name: str) -> bool:
        """Unregister an index by catalog name; ``True`` if it existed.

        Used by merges that could not rebuild a secondary index for the
        new generation: dropping the stale entry makes dependent
        planners degrade (no index) instead of serving a superseded
        layout.  A paged index's node pages are invalidated from the
        buffer pool and dropped from storage, and its node cache is
        emptied -- nothing of the dropped index can be served afterwards.
        """
        with self.lock:
            index = self._indexes.pop(name, None)
            if index is None:
                return False
            self._teardown_index(index)
            return True

    def _teardown_index(self, index: Any) -> None:
        # Duck-typed on purpose: the catalog cannot import repro.core
        # (core imports the catalog).  A kd index's paged tree owns an
        # index namespace and a node cache; bitmap indexes have no tree.
        tree = getattr(index, "tree", None)
        if tree is not None:
            self.buffer_pool.invalidate(tree.namespace)
            self.storage.drop_namespace(tree.namespace)
            tree.drop_node_cache()

    def registered_indexes(self) -> dict[str, Any]:
        """Snapshot of the index registry (persistence, introspection)."""
        with self.lock:
            return dict(self._indexes)

    # -- stats ------------------------------------------------------------

    @property
    def io_stats(self) -> IOStats:
        """Live I/O counters of the storage backend."""
        return self.storage.stats

    def reset_io_stats(self) -> None:
        """Zero the I/O counters (does not clear the buffer pool)."""
        self.storage.stats.reset()

    def cold_cache(self) -> None:
        """Clear every cache, simulating a restart / cold run.

        Covers the buffer pool (both levels) *and* the node caches of
        the kd indexes' paged trees -- a cold run that kept decoded index nodes
        around would understate cold-start I/O.
        """
        self.buffer_pool.clear()
        with self.lock:
            for index in self._indexes.values():
                tree = getattr(index, "tree", None)
                if tree is not None:
                    tree.drop_node_cache()

    def __repr__(self) -> str:
        return (
            f"Database(tables={self.table_names()}, indexes={self.index_names()}, "
            f"buffer_pages={self.buffer_pool.capacity_pages})"
        )
