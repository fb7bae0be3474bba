"""Paged kd-tree vs fully resident: residency, cold start, warm latency.

The on-disk index trades memory for page reads: node arrays live in
compressed pages and only a byte-budgeted cache of decoded node groups
stays resident.  This bench builds one deliberately *deep* tree (two
rows per leaf, so node arrays -- not data rows -- are the footprint),
then replays a selective workload through an in-memory arm -- the same
paged tree under an unbounded node cache, so after one warm pass every
node it visits stays decoded -- and through paged views at several
node-cache budgets.

Emits ``BENCH_index.json`` next to the repo root: build time (the
clustered loader's pure half: tree build and node-page encoding) and
serialization time (its storage half: clustered table and node pages
written), cold-start time against full deserialization
(reading and decoding *every* node page from storage before answering,
the eager-load alternative), node pages decoded, peak index-resident
bytes, and warm latency per budget.  Warm overhead is measured as the
best within-trial ratio against an adjacent in-memory baseline pass,
so a contention spike on a shared machine cancels in the pair or is
discarded by the min over trials instead of skewing a configuration.
Acceptance (full scale only): at the default 4 MB budget the peak
residency is >= 10x below the in-memory node arrays, warm latency is
within 25% of the in-memory tree, and cold start beats full
deserialization.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import Database, KdTreeIndex, sdss_color_sample
from repro.core.kdpaged import PagedKdTree
from repro.core.kdtree import cluster, install
from repro.db.pages import PageCodec
from repro.datasets.sdss import BANDS
from repro.datasets.workload import QueryWorkload

from .conftest import bench_scale, print_table, scaled

#: Deep on purpose: ~2 rows per leaf at every scale, so the node arrays
#: dwarf any reasonable cache budget (at full scale: 2^18 - 1 nodes,
#: ~50 MB of arrays against the 4 MB default budget).
ROWS = 262_144

BUDGETS = {
    "1MB": 1 << 20,
    "4MB_default": 4 << 20,
    "16MB": 16 << 20,
}

#: Selective queries: node-page traffic, not bulk row fetch, is the
#: quantity under test.
SELECTIVITIES = [0.0005, 0.002, 0.01]
NUM_QUERIES = 12
TRIALS = 3

#: Node-cache budget of the in-memory arm: nothing is ever evicted.
UNBOUNDED = 1 << 62


def _num_levels(n: int) -> int:
    """Depth giving ~2 rows per leaf (leaves = 2^(levels-1))."""
    return max(3, int(np.log2(max(8, n))))


def _run_pass(index, polyhedra) -> tuple[float, list[int]]:
    counts = []
    started = time.perf_counter()
    for poly in polyhedra:
        _, stats = index.query_polyhedron(poly)
        counts.append(stats.rows_returned)
    return time.perf_counter() - started, counts


def test_index_paging(benchmark):
    n = scaled(ROWS)
    sample = sdss_color_sample(n, seed=7)
    levels = _num_levels(n)
    db = Database.in_memory(buffer_pages=None)

    def build():
        started = time.perf_counter()
        clustering = cluster(sample.columns(), list(BANDS), levels=levels)
        build_s = time.perf_counter() - started
        started = time.perf_counter()
        index, _ = install(db, "pgbench", sample.columns(), list(BANDS), clustering)
        serialize_s = time.perf_counter() - started
        return index, clustering, build_s, serialize_s

    index, clustering, build_s, serialize_s = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    layout = clustering.layout
    physical = index.table.physical_name
    # The node arrays' footprint once fully decoded (what the unbounded
    # arm holds after touching every page).
    in_memory_bytes = int(
        sum(
            arr.nbytes
            for blob in clustering.node_pages
            for arr in PageCodec.decode(blob).columns.values()
        )
    )
    disk_bytes = sum(len(blob) for blob in clustering.node_pages)
    resident = KdTreeIndex(
        db,
        index.table,
        PagedKdTree(db, physical, layout, node_cache_bytes=UNBOUNDED),
        list(BANDS),
    )

    workload = QueryWorkload(sample.magnitudes, seed=8)
    polyhedra = [
        q.polyhedron(list(BANDS))
        for q in workload.mixed(NUM_QUERIES, SELECTIVITIES)
    ]

    # In-memory warmup pass (data pages, every visited node decoded and
    # kept) + reference answer counts.
    _, truth_counts = _run_pass(resident, polyhedra)

    # Cold phase: per budget, one pass with both pool levels invalidated.
    views: dict[str, tuple] = {}
    per_budget: dict[str, dict] = {}
    for label, budget in BUDGETS.items():
        paged_tree = PagedKdTree(db, physical, layout, node_cache_bytes=budget)
        paged_index = KdTreeIndex(db, index.table, paged_tree, list(BANDS))
        # Honest cold start per budget: node pages leave both pool levels.
        db.buffer_pool.invalidate(paged_tree.namespace)
        io0 = db.io_stats.as_dict()
        cold_s, counts = _run_pass(paged_index, polyhedra)
        assert counts == truth_counts, f"{label}: paged answers diverged"
        cold_io = db.io_stats.as_dict()
        views[label] = (paged_index, paged_tree)
        per_budget[label] = {
            "budget_bytes": budget,
            "cold_wall_s": cold_s,
            "cold_pages_decoded": cold_io["index_pages_decoded"]
            - io0["index_pages_decoded"],
            "warm_hits": 0,
            "warm_misses": 0,
            "evictions": cold_io["node_cache_evictions"]
            - io0["node_cache_evictions"],
        }

    # Warm phase, paired: each trial times the in-memory baseline and then
    # every budget back to back, and the overhead for a budget is the best
    # *within-trial* ratio against that trial's adjacent baseline pass.  A
    # load spike on a shared machine then either spans both passes of a
    # pair (and cancels in the ratio) or inflates one trial's ratio (and
    # the min over trials discards it); absolute walls stay reported.
    mem_warm_s = float("inf")
    warm_walls = {label: float("inf") for label in BUDGETS}
    warm_ratios = {label: float("inf") for label in BUDGETS}
    for _ in range(TRIALS):
        mem_trial_s = _run_pass(resident, polyhedra)[0]
        mem_warm_s = min(mem_warm_s, mem_trial_s)
        for label, (paged_index, _) in views.items():
            before = db.io_stats.as_dict()
            wall, _counts = _run_pass(paged_index, polyhedra)
            after = db.io_stats.as_dict()
            warm_walls[label] = min(warm_walls[label], wall)
            warm_ratios[label] = min(warm_ratios[label], wall / mem_trial_s)
            per_budget[label]["warm_hits"] += (
                after["node_cache_hits"] - before["node_cache_hits"]
            )
            per_budget[label]["warm_misses"] += (
                after["node_cache_misses"] - before["node_cache_misses"]
            )
            per_budget[label]["evictions"] += (
                after["node_cache_evictions"] - before["node_cache_evictions"]
            )
    for label, (_, paged_tree) in views.items():
        r = per_budget[label]
        probes = r.pop("warm_hits") + r["warm_misses"]
        hits = probes - r.pop("warm_misses")
        r["warm_wall_s"] = warm_walls[label]
        r["warm_hit_rate"] = hits / probes if probes else 1.0
        r["max_resident_bytes"] = paged_tree.max_resident_bytes
        r["warm_overhead_vs_in_memory"] = warm_ratios[label] - 1.0

    # Cold start to first answer: lazy paging vs full deserialization,
    # i.e. eagerly reading and decoding *every* node page from storage
    # before the query runs (what a non-paged reload from disk must pay).
    eager_cold_s = float("inf")
    for _ in range(TRIALS):
        db.buffer_pool.invalidate(f"__kdindex__/{physical}")
        started = time.perf_counter()
        eager = PagedKdTree(
            db, physical, layout, node_cache_bytes=2 * in_memory_bytes
        )
        for page_id in range(layout.num_pages):
            eager._page_columns(page_id)
        KdTreeIndex(db, index.table, eager, list(BANDS)).query_polyhedron(
            polyhedra[0]
        )
        eager_cold_s = min(eager_cold_s, time.perf_counter() - started)
    paged_cold_s = float("inf")
    for _ in range(TRIALS):
        db.buffer_pool.invalidate(f"__kdindex__/{physical}")
        started = time.perf_counter()
        fresh = PagedKdTree(db, physical, layout)
        KdTreeIndex(db, index.table, fresh, list(BANDS)).query_polyhedron(
            polyhedra[0]
        )
        paged_cold_s = min(paged_cold_s, time.perf_counter() - started)

    default = per_budget["4MB_default"]
    memory_reduction = in_memory_bytes / max(1, default["max_resident_bytes"])
    rows = [
        [
            label,
            r["budget_bytes"] >> 20,
            r["cold_wall_s"],
            r["warm_wall_s"],
            r["cold_pages_decoded"],
            r["warm_hit_rate"],
            r["evictions"],
            r["max_resident_bytes"] >> 10,
            f"{r['warm_overhead_vs_in_memory']:+.1%}",
        ]
        for label, r in per_budget.items()
    ]
    rows.append(
        ["in_memory", "-", "-", mem_warm_s, 0, 1.0, 0, in_memory_bytes >> 10, "-"]
    )
    print_table(
        f"Paged kd-tree: {n} rows, {levels} levels, "
        f"{layout.num_pages} node pages ({disk_bytes >> 10} KB compressed)",
        [
            "config",
            "budget_mb",
            "cold_s",
            "warm_s",
            "cold_decodes",
            "warm_hits",
            "evictions",
            "peak_kb",
            "vs_mem",
        ],
        rows,
    )
    print(
        f"cold start: paged {paged_cold_s * 1e3:.1f} ms vs full "
        f"deserialization {eager_cold_s * 1e3:.1f} ms; default-budget peak "
        f"residency {memory_reduction:.1f}x below in-memory"
    )

    out = Path(__file__).resolve().parent.parent / "BENCH_index.json"
    out.write_text(
        json.dumps(
            {
                "rows": n,
                "num_levels": levels,
                "num_node_pages": layout.num_pages,
                "nodes_per_page": layout.nodes_per_page,
                "build_s": build_s,
                "serialize_s": serialize_s,
                "in_memory_bytes": in_memory_bytes,
                "compressed_disk_bytes": disk_bytes,
                "queries": len(polyhedra),
                "in_memory_warm_wall_s": mem_warm_s,
                "cold_start_paged_s": paged_cold_s,
                "cold_start_full_deserialize_s": eager_cold_s,
                "default_budget_memory_reduction": memory_reduction,
                "budgets": per_budget,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {out}")

    # Always-on sanity: paging actually happened and the budget bit.
    assert default["cold_pages_decoded"] > 0
    assert per_budget["1MB"]["evictions"] > 0
    page_bytes = in_memory_bytes // layout.num_pages
    for label, r in per_budget.items():
        assert r["max_resident_bytes"] <= r["budget_bytes"] + 2 * page_bytes, (
            f"{label}: resident {r['max_resident_bytes']} blew the budget"
        )
    # Acceptance gates hold at full scale; smoke runs only report (tiny
    # trees fit a page or two, so ratios there say nothing).
    if bench_scale() >= 1.0:
        assert memory_reduction >= 10.0, (
            f"default-budget residency only {memory_reduction:.1f}x below in-memory"
        )
        assert default["warm_overhead_vs_in_memory"] <= 0.25, (
            f"warm overhead {default['warm_overhead_vs_in_memory']:+.1%} > 25%"
        )
        assert paged_cold_s < eager_cold_s, (
            f"paged cold start {paged_cold_s:.3f}s not faster than "
            f"full deserialization {eager_cold_s:.3f}s"
        )
