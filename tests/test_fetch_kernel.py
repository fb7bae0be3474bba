"""The fetch kernel against the per-page loop it replaced.

``_reference`` below is that loop, kept as plain as possible: bucket the
segments by page, read the pages in first-named order, and run the whole
residual on every page's selection separately.  The kernel must return
the same rows and the same counters whatever the segment list looks like
-- ranges and offset arrays, filtered or index-proven, members sharing
pages, a chunk boundary inside a page run, a member cancelled
mid-stream, read faults -- because every engine's answer now comes out
of it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.bitmap import BitmapIndex
from repro.bitmap.executor import bitmap_query
from repro.db import FaultInjector, FaultyStorage, MemoryStorage, RetryPolicy, StorageFault
from repro.db import fetch as kernel
from repro.db.faults import call_with_retries
from repro.db.fetch import FetchMember, _coalesced_runs, fetch
from repro.db.stats import QueryStats
from repro.geometry.boxes import BoxRelation
from repro.geometry.halfspace import Halfspace, Polyhedron

DIMS = ["x", "y"]
ROWS_PER_PAGE = 16
NUM_ROWS = 20 * ROWS_PER_PAGE - 5  # a short last page
NO_BACKOFF = RetryPolicy(attempts=3, backoff_s=0.0)
COUNTERS = (
    "pages_touched",
    "rows_examined",
    "rows_returned",
    "pages_skipped",
    "pages_prefetched",
)


class Cancelled(Exception):
    pass


def _box(lo, hi) -> Polyhedron:
    faces = []
    for axis, (low, high) in enumerate(zip(lo, hi)):
        e = np.zeros(len(lo))
        e[axis] = 1.0
        faces += [Halfspace(e, float(high)), Halfspace(-e, -float(low))]
    return Polyhedron(faces)


def _build(delta: str, fault_rate: float, dims_dtype: str = "float64"):
    """A fresh table (clustered on ``x``), its injector switched on last.

    ``dims_dtype`` is the storage dtype of the residual's columns ``x``
    and ``y``; the rows hold whole numbers, so every dtype stores them
    exactly.
    """
    injector = FaultInjector(seed=3)
    db = Database(
        FaultyStorage(MemoryStorage(), injector), buffer_pages=4, retry=NO_BACKOFF
    )
    rng = np.random.default_rng(0)
    data = {
        "x": np.sort(rng.integers(0, 100, NUM_ROWS)).astype(dims_dtype),
        "y": rng.integers(0, 100, NUM_ROWS).astype(dims_dtype),
        "k": rng.integers(0, 8, NUM_ROWS),
        "v": np.arange(NUM_ROWS, dtype=np.int64),
    }
    table = db.create_table("t", data, rows_per_page=ROWS_PER_PAGE)
    if delta != "none":
        table.insert_rows(
            {
                "x": rng.integers(0, 100, 40).astype(dims_dtype),
                "y": rng.integers(0, 100, 40).astype(dims_dtype),
                "k": rng.integers(0, 8, 40),
                "v": np.arange(10_000, 10_040, dtype=np.int64),
            }
        )
    if delta == "tombstones":
        table.delete_rows(rng.choice(NUM_ROWS, 60, replace=False))
    injector.configure(read_fault_rate=fault_rate)
    return db, table


def _members(table, specs) -> list[FetchMember]:
    """Fresh members (and fresh cancel counters) from drawn specs."""
    zone_map = table.zone_map()
    members = []
    for spec in specs:
        polyhedron = predicate = None
        lo, hi = spec["lo"], spec["hi"]
        if spec["residual"] == "polyhedron":
            polyhedron = _box(lo, hi)
        elif spec["residual"] == "predicate":
            def predicate(cols, lo=lo, hi=hi):
                return (
                    (cols["x"] >= lo[0]) & (cols["x"] <= hi[0])
                    & (cols["y"] >= lo[1]) & (cols["y"] <= hi[1])
                )
        check = None
        if spec["cancel_after"] is not None:
            def check(left=[spec["cancel_after"]]):
                if left[0] == 0:
                    raise Cancelled()
                left[0] -= 1
        members.append(
            FetchMember(
                polyhedron=polyhedron,
                dims=DIMS,
                predicate=predicate,
                memberships={"k": np.array(spec["in_list"])} if spec["in_list"] else None,
                pruner=zone_map.pruner(_box(lo, hi), DIMS) if spec["prune"] else None,
                cancel_check=check,
            )
        )
    return members


def _reference(table, members, segments, tombstones, snapshot):
    """One residual evaluation per page and member: the replaced loop."""
    n = len(members)
    stats = [QueryStats() for _ in range(n)]
    errors = [None] * n
    found = [[] for _ in range(n)]  # (row id, *every column) tuples
    read = [set() for _ in range(n)]  # page ids each member consumed
    counters = {"pages_decoded": 0, "shared_decode_hits": 0}

    def residual(member, columns, geometry):
        mask = np.ones(len(columns["x"]), dtype=bool)
        if geometry and member.polyhedron is not None:
            mask &= member.polyhedron.contains_points(
                np.column_stack([columns[d] for d in DIMS])
            )
        elif geometry and member.predicate is not None:
            mask &= member.predicate(columns)
        for name, values in (member.memberships or {}).items():
            mask &= np.isin(columns[name], values)
        return mask

    plan: dict[int, list] = {}
    for page_id, m, selection, needs_filter in segments:
        if needs_filter and members[m].pruner is not None:
            relation = members[m].pruner.classify(page_id)
            if relation is BoxRelation.OUTSIDE:
                stats[m].pages_skipped += 1
                continue
            needs_filter = relation is not BoxRelation.INSIDE
        plan.setdefault(page_id, []).append((m, selection, needs_filter))
    prefetch_at = {
        run[0]: run
        for run in _coalesced_runs(list(plan), table.readahead_pages)
        if len(run) > 1
    }
    for page_id, takers in plan.items():
        live, asked = [], set()
        for m, selection, needs_filter in takers:
            if errors[m] is None and m not in asked:
                asked.add(m)
                try:
                    if members[m].cancel_check is not None:
                        members[m].cancel_check()
                except Cancelled as exc:
                    errors[m] = exc
            if errors[m] is None:
                live.append((m, selection, needs_filter))
        if not live:
            continue
        if page_id in prefetch_at:
            stats[live[0][0]].pages_prefetched += table.prefetch(prefetch_at[page_id])
        page = call_with_retries(lambda: table.read_page(page_id), NO_BACKOFF)
        counters["pages_decoded"] += 1
        counters["shared_decode_hits"] += len({m for m, _, _ in live}) - 1
        for m, selection, needs_filter in live:
            local = np.arange(*selection) if isinstance(selection, tuple) else selection
            columns = {name: arr[local] for name, arr in page.columns.items()}
            row_ids = page.start_row + local
            mask = residual(members[m], columns, needs_filter)
            if tombstones is not None:
                mask &= ~np.isin(row_ids, tombstones)
            read[m].add(page_id)
            stats[m].rows_examined += len(local)
            stats[m].rows_returned += int(mask.sum())
            found[m] += _tuples(row_ids[mask], columns, table.column_names, mask)
    if snapshot is not None and snapshot.num_rows:
        for m in range(n):
            if errors[m] is None:
                mask = residual(members[m], snapshot.columns, True)
                stats[m].rows_examined += snapshot.num_rows
                stats[m].rows_returned += int(mask.sum())
                found[m] += _tuples(
                    snapshot.row_ids[mask], snapshot.columns, table.column_names, mask
                )
    for m in range(n):
        stats[m].pages_touched = len(read[m])
    return stats, errors, found, counters


def _tuples(row_ids, columns, names, mask=None):
    """One ``(row id, *columns in table order)`` tuple per (masked) row."""
    values = [
        (columns[name] if mask is None else columns[name][mask]).tolist()
        for name in names
    ]
    return list(zip(row_ids.tolist(), *values))


@st.composite
def _selection(draw):
    if draw(st.booleans()):
        lo = draw(st.integers(0, ROWS_PER_PAGE - 1))
        return lo, draw(st.integers(lo + 1, ROWS_PER_PAGE))
    offsets = draw(st.sets(st.integers(0, ROWS_PER_PAGE - 1), min_size=1))
    return np.array(sorted(offsets), dtype=np.int64)


@st.composite
def _member_spec(draw):
    lo = [draw(st.integers(0, 80)), draw(st.integers(0, 80))]
    return {
        "lo": lo,
        "hi": [lo[0] + draw(st.integers(0, 60)), lo[1] + draw(st.integers(20, 100))],
        "residual": draw(st.sampled_from(["polyhedron", "predicate", "none"])),
        "in_list": draw(st.sampled_from([None, [1, 4], [0, 2, 3, 5, 7]])),
        "prune": draw(st.booleans()),
        "cancel_after": draw(st.sampled_from([None, None, 0, 3, 9])),
    }


@st.composite
def _case(draw):
    specs = draw(st.lists(_member_spec(), min_size=1, max_size=4))
    num_pages = -(-NUM_ROWS // ROWS_PER_PAGE)
    last_rows = NUM_ROWS - (num_pages - 1) * ROWS_PER_PAGE
    segments = []
    for _ in range(draw(st.integers(0, 40))):
        page_id = draw(st.integers(0, num_pages - 1))
        selection = draw(_selection())
        if page_id == num_pages - 1:  # keep selections inside the short page
            if isinstance(selection, tuple):
                selection = (min(selection[0], last_rows - 1), min(selection[1], last_rows))
            else:
                selection = np.unique(np.minimum(selection, last_rows - 1))
        segments.append(
            (page_id, draw(st.integers(0, len(specs) - 1)), selection, draw(st.booleans()))
        )
    if draw(st.booleans()):
        segments.sort(key=lambda segment: segment[0])  # how engines hand them over
    return specs, segments


def _outcome(error, found, stats, dtypes=None):
    """What must agree for one member.

    A cancelled member returns no rows, so how many it had matched when
    it was dropped is not part of the contract (the kernel has not
    filtered its last chunk yet); everything it read and skipped is.
    Every returned column is compared, values and dtype.
    """
    if error is not None:
        counters = [getattr(stats, c) for c in COUNTERS if c != "rows_returned"]
        return type(error), None, counters, None
    return None, sorted(found), [getattr(stats, c) for c in COUNTERS], dtypes


@settings(max_examples=120, deadline=None)
@given(
    case=_case(),
    delta=st.sampled_from(["none", "inserts", "tombstones"]),
    chunk_rows=st.sampled_from([1, 24, 4096]),
    fault_rate=st.sampled_from([0.0, 0.05]),
    dims_dtype=st.sampled_from(["float64", "float64", "float32", "int64", "int32"]),
)
def test_kernel_matches_per_page_reference(case, delta, chunk_rows, fault_rate, dims_dtype):
    specs, segments = case

    def run(execute):
        _, table = _build(delta, fault_rate, dims_dtype)
        snapshot = table.delta_snapshot()
        tombstones = snapshot.tombstones if snapshot is not None else None
        if tombstones is not None and not len(tombstones):
            tombstones = None
        try:
            return execute(table, _members(table, specs), tombstones, snapshot)
        except StorageFault as exc:
            return type(exc)

    def expected(table, members, tombstones, snapshot):
        stats, errors, found, counters = _reference(
            table, members, segments, tombstones, snapshot
        )
        dtypes = {name: table.dtype_of(name).str for name in table.column_names}
        dtypes["_row_id"] = np.dtype(np.int64).str
        return [
            _outcome(errors[m], found[m], stats[m], dtypes) for m in range(len(members))
        ], counters

    def actual(table, members, tombstones, snapshot):
        with mock.patch.object(kernel, "_CHUNK_ROWS", chunk_rows):
            results, counters = fetch(
                table, members, segments,
                tombstones=tombstones, snapshot=snapshot, retry=NO_BACKOFF,
            )
        return [
            _outcome(
                error,
                None if error else _tuples(rows["_row_id"], rows, table.column_names),
                stats,
                None if error else {name: arr.dtype.str for name, arr in rows.items()},
            )
            for rows, stats, error in results
        ], counters

    assert run(actual) == run(expected)


def test_residual_runs_per_chunk_not_per_page():
    """The per-page loop must not creep back: count the numpy calls."""
    db = Database.in_memory(buffer_pages=None)
    rng = np.random.default_rng(1)
    n = 150 * ROWS_PER_PAGE
    data = {
        "x": rng.normal(size=n),
        "y": rng.normal(size=n),
        "k": rng.integers(0, 4, n),
    }
    table = db.create_table("t", data, rows_per_page=ROWS_PER_PAGE)
    index = BitmapIndex.build(db, "t", DIMS, num_bins=8)
    polyhedron = _box([-0.5, -0.5], [0.5, 0.5])
    memberships = {"k": np.array([1, 2])}
    candidates = index.candidate_rows(polyhedron, memberships)
    inside = (
        (np.abs(table.read_column("x")) <= 0.5)
        & (np.abs(table.read_column("y")) <= 0.5)
        & np.isin(table.read_column("k"), [1, 2])
    )

    with mock.patch.object(
        Polyhedron, "contains_points", autospec=True, side_effect=Polyhedron.contains_points
    ) as contains, mock.patch("numpy.isin", side_effect=np.isin) as isin:
        rows, stats = bitmap_query(
            index, polyhedron, memberships=memberships, candidate_rows=candidates
        )
    assert np.array_equal(np.sort(rows["_row_id"]), np.flatnonzero(inside))
    assert stats.pages_touched >= 100
    chunks = -(-stats.rows_examined // kernel._CHUNK_ROWS)
    assert contains.call_count == chunks
    assert isin.call_count == chunks * len(memberships)
