"""The four workloads: data, op streams, and the system each one drives.

Every workload runs over the same table -- ``sdss_color_sample(250_000,
seed=0)`` plus an ``oid`` column, 1,954 data pages -- so only the query/op
stream depends on ``--seed``.  Streams are generated here, from the seed,
with this file's own generator (not ``repro.datasets.workload``), and the
system under test receives nothing but the generated polyhedra, IN-lists
and row batches.

Each stream has a fixed composition (exact counts per query class, only
the order and the windows are random), so two seeds differ in *which*
boxes are asked, not in how many of each kind; that is what keeps p50 and
p95 comparable across seeds.

All loops are closed: a client sends its next request when the previous
reply has arrived, because that is how every caller in this repository
(the replay client, the web front end) behaves.  One generator process,
at most two client threads: the machine has two cores.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import (
    Database,
    KdPartitioner,
    KdTreeIndex,
    QueryClient,
    QueryPlanner,
    QueryServer,
    QueryService,
    ScatterGatherExecutor,
    save_catalog,
    sdss_color_sample,
)
from repro.bitmap import BitmapIndex
from repro.db.storage import index_namespace
from repro.geometry.halfspace import Halfspace, Polyhedron

__all__ = [
    "WORKLOADS",
    "BANDS",
    "TABLE",
    "Query",
    "Op",
    "Answer",
    "QueryGenerator",
    "PlannerEnv",
    "ServeEnv",
    "make_dataset",
    "table_rows",
    "user_bytes",
]

ROWS = 250_000
BANDS = ["u", "g", "r", "i", "z"]
TABLE = "mag"
BITMAP_BINS = 128

#: Stream lengths per second of ``--seconds``, sized at this commit so the
#: timed window lasts a little under ``--seconds`` on the 2-core sandbox.
#: They are constants, not measurements: a faster engine finishes the same
#: stream sooner, it is not handed more work.
NEEDLE_QUERIES_PER_S = 125
BROAD_QUERIES_PER_S = 6
SERVE_QUERIES_PER_S = 45
INGEST_CYCLES_PER_S = 3.0

INGEST_INSERT_ROWS = 2_000
INGEST_DELETE_ROWS = 200
INGEST_QUERIES_PER_CYCLE = 12
INGEST_MERGE_THRESHOLD = 0.08


# -- data ---------------------------------------------------------------------


def table_rows(scale: float) -> int:
    """Rows of the base table at a given ``--scale`` (1.0 = the benchmark)."""
    return max(2_000, int(ROWS * scale))


def make_dataset(rows: int, seed: int = 0, first_oid: int = 0) -> dict[str, np.ndarray]:
    """The user's columns: five magnitudes and an object id."""
    sample = sdss_color_sample(rows, seed=seed)
    columns = dict(sample.columns())
    columns["oid"] = np.arange(first_oid, first_oid + rows, dtype=np.int64)
    return columns


def user_bytes(columns: dict[str, np.ndarray]) -> int:
    return int(sum(arr.nbytes for arr in columns.values()))


# -- queries ------------------------------------------------------------------


@dataclass
class Query:
    polyhedron: Polyhedron
    memberships: dict | None
    kind: str
    target: float  # the selectivity the windows were fitted to


@dataclass
class Op:
    """One step of a workload script."""

    kind: str  # "query" | "insert" | "delete" | "merge"
    query: Query | None = None
    rows: dict | None = None  # insert: the user's columns
    count: int = 0  # delete: how many live rows to remove


@dataclass
class Answer:
    """What a client got back, reduced to what the benchmark reads."""

    oids: np.ndarray
    row_ids: np.ndarray
    stats: object  # repro QueryStats
    chosen_path: str
    estimated_selectivity: float
    actual_selectivity: float
    partial: bool = False
    cache_hit: bool = False


class QueryGenerator:
    """Selectivity-controlled polyhedra over the magnitude space.

    A query is a conjunction of windows over linear forms (a band, a
    color, an oblique combination), all centred on one quantile ``center``.
    The windows' common width is fitted by bisection on a calibration
    subsample until the *joint* selectivity hits the target: the bands are
    strongly correlated, so independent per-axis widths would miss it by
    an order of magnitude either way and the cost of a stream would swing
    with the seed.

    Each window is cut at midpoints between neighbouring sorted values of
    its form, so no data point sits on a query face and the oracle's
    arithmetic cannot disagree with an engine's in the last bit.
    """

    COLORS = [(0, 1), (1, 2), (2, 3), (3, 4)]
    _FIT_STEPS = 12

    def __init__(self, columns: dict[str, np.ndarray], rng: np.random.Generator):
        self._rng = rng
        points = np.column_stack([columns[band] for band in BANDS])
        self._sorted_bands = [np.sort(points[:, axis]) for axis in range(5)]
        self._sorted_colors = [np.sort(points[:, a] - points[:, b]) for a, b in self.COLORS]
        self._calibration = points[:: max(1, len(points) // 20_000)]

    @staticmethod
    def _window(ordered: np.ndarray, center: float, fraction: float) -> tuple[float, float]:
        n = len(ordered)
        fraction = min(max(fraction, 2.0 / n), 1.0)
        first = int(float(np.clip(center - fraction / 2.0, 0.0, 1.0 - fraction)) * (n - 1))
        last = min(n - 1, first + max(1, int(round(fraction * n))) - 1)
        low = ordered[first] - 1.0 if first == 0 else (ordered[first - 1] + ordered[first]) / 2.0
        high = ordered[last] + 1.0 if last == n - 1 else (ordered[last] + ordered[last + 1]) / 2.0
        return float(low), float(high)

    def _conjunction(self, forms: list, center: float, selectivity: float) -> Polyhedron:
        """Windows over ``forms`` = [(normal, sorted values of the form)]."""
        projected = [self._calibration @ normal for normal, _ in forms]

        def windows(fraction: float) -> list[tuple[float, float]]:
            return [self._window(ordered, center, fraction) for _, ordered in forms]

        narrow, wide = 0.0, 1.0
        for _ in range(self._FIT_STEPS):
            fraction = (narrow + wide) / 2.0
            inside = np.ones(len(self._calibration), dtype=bool)
            for values, (low, high) in zip(projected, windows(fraction)):
                inside &= (values >= low) & (values <= high)
            if inside.mean() < selectivity:
                narrow = fraction
            else:
                wide = fraction
        faces: list[Halfspace] = []
        for (normal, _), (low, high) in zip(forms, windows(wide)):
            faces += [Halfspace(normal, high), Halfspace(-normal, -low)]
        return Polyhedron(faces)

    def box(self, selectivity: float, center: float, axes: tuple) -> Query:
        """Axis-aligned window over the given bands."""
        forms = [(np.eye(5)[axis], self._sorted_bands[axis]) for axis in axes]
        return Query(self._conjunction(forms, center, selectivity), None, "box", selectivity)

    def color_cut(self, selectivity: float, center: float, picks: tuple) -> Query:
        """Windows over two adjacent colors (``g - r`` style cuts)."""
        forms = []
        for pick in picks:
            a, b = self.COLORS[pick]
            normal = np.zeros(5)
            normal[a], normal[b] = 1.0, -1.0
            forms.append((normal, self._sorted_colors[pick]))
        return Query(self._conjunction(forms, center, selectivity), None, "color_cut", selectivity)

    def oblique(self, selectivity: float, center: float) -> Query:
        """Two windows over linear forms with random quarter-step coefficients."""
        forms = []
        for _ in range(2):
            normal = np.round(self._rng.uniform(-1.0, 1.0, 5) * 4) / 4.0
            if not normal.any():
                normal[int(self._rng.integers(5))] = 1.0
            # Random coefficients: nothing can be sorted ahead, so the
            # form is cut between values of the calibration subsample.
            forms.append((normal, np.sort(self._calibration @ normal)))
        return Query(self._conjunction(forms, center, selectivity), None, "oblique", selectivity)

    def needle(self, center: float, axis: int) -> Query:
        """IN-list of 50 magnitudes from a 1% window of one band; no box."""
        ordered = self._sorted_bands[axis]
        first = int(center * (len(ordered) - 1))
        pool = ordered[first : first + max(50, len(ordered) // 100)]
        values = self._rng.choice(pool, size=min(50, len(pool)), replace=False)
        everything = np.zeros(5)
        everything[0] = 1.0
        return Query(
            Polyhedron([Halfspace(everything, np.inf)]),
            {BANDS[axis]: np.sort(values)},
            "needle",
            len(values) / len(ordered),
        )


# -- streams -------------------------------------------------------------------
#
# A stream is stratified, not sampled: each class (kind x selectivity) has
# an exact count, its window centres are an evenly spaced lattice over the
# allowed quantile range (shifted by one random offset per class), and the
# band subsets rotate through every combination.  The seed decides the
# lattice offsets, the pairing, the oblique coefficients, the needle values
# and the order -- enough that no two seeds ask the same query, little
# enough that two seeds cost about the same.

_BAND_SETS = [c for k in (2, 3) for c in itertools.combinations(range(5), k)]
_COLOR_PAIRS = list(itertools.combinations(range(4), 2))


def _lattice(rng, count: int, low: float, high: float) -> np.ndarray:
    """``count`` evenly spaced points of ``[low, high)``, jointly shifted, shuffled."""
    points = low + (high - low) * (np.arange(count) + rng.uniform()) / max(count, 1)
    return rng.permutation(points)


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _stratified(rng, count: int, selectivities: list[float], make, choices: list = ()) -> list[Query]:
    """``count`` queries split evenly over ``selectivities``.

    Within a class the centres form a lattice over the middle half of the
    quantile range and ``choices`` (band or color subsets) rotate from a
    random start; ``make(selectivity, center[, choice])`` builds the query.
    """
    queries = []
    for k, selectivity in enumerate(selectivities):
        members = len(range(k, count, len(selectivities)))
        start = int(rng.integers(len(choices))) if choices else 0
        for j, center in enumerate(_lattice(rng, members, 0.25, 0.75)):
            extra = (choices[(start + j) % len(choices)],) if choices else ()
            queries.append(make(selectivity, center, *extra))
    return queries


_NEEDLE_BOXES = [5e-4, 2e-3, 1e-2]


def needle_stream(gen: QueryGenerator, rng, count: int) -> list[Query]:
    """70% boxes at {5e-4, 2e-3, 1e-2}, 30% IN-list needles."""
    boxes = round(count * 0.7)
    queries = _stratified(rng, boxes, _NEEDLE_BOXES, gen.box, _BAND_SETS)
    queries += [
        gen.needle(center, j % 5)
        for j, center in enumerate(_lattice(rng, count - boxes, 0.05, 0.9))
    ]
    return _shuffled(rng, queries)


def box_stream(gen: QueryGenerator, rng, count: int) -> list[Query]:
    """Boxes only (the read side of ``ingest_mix``)."""
    return _shuffled(rng, _stratified(rng, count, _NEEDLE_BOXES, gen.box, _BAND_SETS))


def broad_stream(gen: QueryGenerator, rng, count: int) -> list[Query]:
    """Color cuts and oblique cuts at {0.05, 0.2, 0.5}."""
    cuts = count - count // 2
    selectivities = [0.05, 0.2, 0.5]
    queries = _stratified(rng, cuts, selectivities, gen.color_cut, _COLOR_PAIRS)
    queries += _stratified(rng, count - cuts, selectivities, gen.oblique)
    return _shuffled(rng, queries)


def serve_stream(gen: QueryGenerator, rng, count: int) -> list[Query]:
    """Figure-2 mix at {1e-3, 1e-2, 1e-1}; every fourth query repeats a recent one."""
    fresh = count - count // 4
    third = fresh // 3
    selectivities = [1e-3, 1e-2, 1e-1]
    distinct = _shuffled(
        rng,
        _stratified(rng, fresh - 2 * third, selectivities, gen.box, _BAND_SETS)
        + _stratified(rng, third, selectivities, gen.color_cut, _COLOR_PAIRS)
        + _stratified(rng, third, selectivities, gen.oblique),
    )
    stream: list[Query] = []
    for query in distinct:
        stream.append(query)
        if len(stream) % 4 == 3 and len(stream) < count:
            # A repeat of one of the last 24 queries: recent enough to be
            # in the 256-entry result cache unless bytes evicted it.
            stream.append(stream[-int(rng.integers(1, min(24, len(stream)) + 1))])
    return stream[:count]


def ingest_script(
    gen: QueryGenerator, rng, cycles: int, seed: int, first_oid: int, scale: float
) -> list[Op]:
    """``cycles`` x [insert - queries - delete - merge check].

    Deletes name a count, not ids: the driver picks that many live rows
    out of the cycle's own query results, which are the only row ids a
    client of this system ever learns.
    """
    insert_rows = max(20, int(INGEST_INSERT_ROWS * scale))
    delete_rows = max(2, int(INGEST_DELETE_ROWS * scale))
    fresh = make_dataset(cycles * insert_rows, seed=1_000 + seed, first_oid=first_oid)
    boxes = box_stream(gen, rng, cycles * INGEST_QUERIES_PER_CYCLE)
    script: list[Op] = []
    for cycle in range(cycles):
        reads = boxes[cycle * INGEST_QUERIES_PER_CYCLE : (cycle + 1) * INGEST_QUERIES_PER_CYCLE]
        rows = {
            name: arr[cycle * insert_rows : (cycle + 1) * insert_rows]
            for name, arr in fresh.items()
        }
        script.append(Op("insert", rows=rows))
        script += _queries(reads)
        script.append(Op("delete", count=delete_rows))
        script.append(Op("merge"))
    return script


# -- systems under test ---------------------------------------------------------


def _planner_answer(planned) -> Answer:
    return Answer(
        oids=planned.rows["oid"],
        row_ids=planned.rows["_row_id"],
        stats=planned.stats,
        chosen_path=planned.chosen_path,
        estimated_selectivity=planned.estimated_selectivity,
        actual_selectivity=planned.actual_selectivity,
        partial=planned.partial,
    )


class PlannerEnv:
    """One database, paged kd-tree + bitmap index, one planner."""

    clients = 1

    def __init__(self, data: dict, scratch: Path, on_disk: bool):
        started = time.perf_counter()
        if on_disk:
            # Every set-up of a run writes the same page files under the
            # same directory.  Unlinking and re-creating ~2,000 files per
            # set-up makes ext4 charge 0.1-0.8 s of system time depending
            # on how much of that churn it still has queued; overwriting
            # in place costs the same every time.
            self.root = scratch / "db"
            # 256 frames + 2 MiB of decoded pages hold ~13% of the table.
            self.db = Database.on_disk(self.root, buffer_pages=256, decoded_cache_bytes=2 << 20)
        else:
            self.root = None
            self.db = Database.in_memory(buffer_pages=None)
        self.index = KdTreeIndex.build(self.db, TABLE, dict(data), list(BANDS))
        BitmapIndex.build(self.db, TABLE, list(BANDS), num_bins=BITMAP_BINS)
        self.load_s = time.perf_counter() - started
        self.planner = QueryPlanner(self.index, engine="auto")
        self.wal_bytes_appended = 0

    def client(self, _index: int):
        planner = self.planner

        def call(query: Query) -> Answer:
            # Looked up per call, so that the traced pass's shim is seen.
            return _planner_answer(
                planner.execute(query.polyhedron, memberships=query.memberships)
            )

        return call

    def engine_clients(self, engines):
        """``(engine, client)`` pairs over the same index, access path forced."""
        for engine in engines:
            execute = QueryPlanner(self.index, engine=engine).execute
            yield engine, (
                lambda q, execute=execute: _planner_answer(
                    execute(q.polyhedron, memberships=q.memberships)
                )
            )

    def force_merge(self) -> None:
        self.db.ingest.merge(TABLE)

    # -- writes (ingest_mix) ---------------------------------------------------

    def _logged(self, write, argument) -> None:
        """Run one write and account the WAL bytes it appended.

        Only a merge truncates the log, so between merges the growth of
        ``log_bytes()`` is exactly what the write appended.
        """
        before = self.db.ingest_wal.log_bytes()
        write(argument)
        self.wal_bytes_appended += self.db.ingest_wal.log_bytes() - before

    def insert(self, rows: dict) -> None:
        self._logged(self.db.table(TABLE).insert_rows, rows)

    def delete(self, row_ids: np.ndarray) -> None:
        self._logged(self.db.table(TABLE).delete_rows, row_ids)

    def maybe_merge(self):
        return self.db.ingest.maybe_merge(TABLE, INGEST_MERGE_THRESHOLD)

    # -- counters ----------------------------------------------------------------

    def io(self) -> dict:
        return self.db.io_stats.as_dict()

    def worker_pids(self) -> list[int]:
        return []

    def stored_bytes(self) -> int:
        """Bytes the database occupies now: every generation's data and
        index pages still in storage, the ingest log, and (file-backed)
        the catalog.  Read back through the public storage API."""
        storage = self.db.storage
        state = self.db.ingest.state(TABLE)
        generations = state.generation if state is not None else 0
        physical = [TABLE] + [f"{TABLE}@g{g}" for g in range(1, generations + 1)]
        total = self.db.ingest_wal.log_bytes()
        for name in physical:
            for namespace in (name, index_namespace(name)):
                for page_id in range(storage.num_pages(namespace)):
                    total += len(storage.read_page_bytes(namespace, page_id))
        if self.root is not None:
            total += save_catalog(self.db).stat().st_size
        return total

    def live_rows(self) -> int:
        return self.db.table(TABLE).num_live_rows

    def close(self) -> None:
        pass  # nothing to stop; the caller removes the scratch directory


class ServeEnv:
    """Two process shards behind the query service behind the TCP front door."""

    clients = 2

    def __init__(self, data: dict, _scratch: Path, _on_disk: bool = False):
        started = time.perf_counter()
        self.specs = KdPartitioner(2).plan(TABLE, dict(data), list(BANDS))
        self.pool = ScatterGatherExecutor(specs=self.specs, transport="process")
        self.load_s = time.perf_counter() - started
        self.service = None
        self._thread = None
        self._clients: list[QueryClient] = []
        try:
            self.service = QueryService(
                None, self.pool, workers=2, batch_size=4, batch_delay_s=0.001, cache_entries=256
            ).start()
            self._start_server()
        except BaseException:
            self.close()
            raise

    def _start_server(self) -> None:
        ready = threading.Event()

        def run() -> None:
            async def main() -> None:
                self.server = QueryServer(self.service, port=0)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
                ready.set()
                await self.server.serve_until_drained()

            asyncio.run(main())

        self._thread = threading.Thread(target=run, name="e2e-front-door", daemon=True)
        self._thread.start()
        if not ready.wait(30):
            raise RuntimeError("the TCP front door did not start within 30 s")

    def client(self, index: int):
        host, port = self.server.address
        connection = QueryClient(host, port, tenant=f"e2e-{index}", timeout=120)
        self._clients.append(connection)
        total_rows = self.live_rows()

        def call(query: Query) -> Answer:
            out = connection.query(query.polyhedron)
            return Answer(
                oids=out.rows["oid"],
                row_ids=out.rows["_row_id"],
                stats=out.stats,
                chosen_path=out.chosen_path,
                estimated_selectivity=out.estimated_selectivity,
                # The pool leaves actual_selectivity unset; the table is static.
                actual_selectivity=len(out.rows["oid"]) / total_rows,
                partial=out.partial,
                cache_hit=out.cache_hit,
            )

        return call

    def engine_clients(self, engines):
        """``(engine, client)`` pairs, each over its own bare worker pool.

        A shard's access path is fixed when its worker starts, so every
        forced engine needs fresh workers; the served system is shut down
        first so that nothing is forked from a process with live threads.
        """
        self.close()
        for engine in engines:
            pool = ScatterGatherExecutor(specs=self.specs, transport="process", engine=engine)
            try:
                yield engine, (lambda q, pool=pool: _planner_answer(pool.execute(q.polyhedron)))
            finally:
                pool.close()

    def io(self) -> dict:
        return self.pool.io_stats().as_dict()

    def worker_pids(self) -> list[int]:
        return [w["pid"] for w in self.pool.worker_stats() if w["pid"]]

    def stored_bytes(self) -> int:
        # Shard pages live in the workers; nothing there is ever
        # rewritten, so bytes written == bytes stored.
        return self.io()["bytes_written"]

    def live_rows(self) -> int:
        return int(sum(spec.num_rows for spec in self.specs))

    def close(self) -> None:
        """Drain the front door, stop the service, reap the workers (idempotent)."""
        for connection in self._clients:
            connection.close()
        self._clients.clear()
        if self._thread is not None:
            asyncio.run_coroutine_threadsafe(self.server.drain(), self._loop).result(60)
            self._thread.join(30)
            self._thread = None
        elif self.service is not None:
            self.service.stop(drain=False)
        self.service = None
        self.pool.close()


# -- the workload table -----------------------------------------------------------


@dataclass
class Workload:
    name: str
    env: type
    #: ``(generator, rng, count) -> list[Query]``: the read stream (for a
    #: writing workload, the stream its warm-up pass reads)
    stream: object
    #: queries (or write cycles) per second of ``--seconds``
    rate: float
    #: smallest stream worth running, whatever the scale
    floor: int
    on_disk: bool = False
    writes: bool = False
    #: queries and forced engines of the traced pass's engine comparison
    compare_queries: int = 40
    compare_engines: tuple = ("kd", "scan", "bitmap", "hybrid")

    def setup(self, data: dict, scratch: Path):
        return self.env(data, scratch, self.on_disk)

    def _count(self, seconds: float, scale: float) -> int:
        return max(self.floor, int(round(self.rate * seconds * scale)))

    def warm_ops(self, gen: QueryGenerator, rng, seconds: float, scale: float) -> list[Op]:
        count = self._count(seconds, scale)
        warm = count * 3 if self.writes else count // 8
        return _queries(self.stream(gen, rng, max(self.floor, warm)))

    def timed_ops(self, gen: QueryGenerator, rng, seconds: float, seed: int, scale: float) -> list[Op]:
        count = self._count(seconds, scale)
        if self.writes:
            return ingest_script(gen, rng, count, seed, table_rows(scale), scale)
        return _queries(self.stream(gen, rng, count))


def _queries(stream: list[Query]) -> list[Op]:
    return [Op("query", query=q) for q in stream]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("needle_warm", PlannerEnv, needle_stream, NEEDLE_QUERIES_PER_S, 20),
        Workload(
            "broad_cold",
            PlannerEnv,
            broad_stream,
            BROAD_QUERIES_PER_S,
            6,
            on_disk=True,
            # Only the two engines that can win on broad cuts; each costs
            # a quarter of a second per query here.
            compare_queries=8,
            compare_engines=("kd", "scan"),
        ),
        Workload(
            "serve_sharded", ServeEnv, serve_stream, SERVE_QUERIES_PER_S, 12, compare_queries=16
        ),
        Workload(
            "ingest_mix",
            PlannerEnv,
            box_stream,
            INGEST_CYCLES_PER_S,
            12,  # the tenth cycle is the first to cross the merge threshold
            writes=True,
        ),
    )
}
