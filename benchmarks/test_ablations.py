"""Ablations of the design choices DESIGN.md calls out.

* leaf sizing: the paper's √N rule vs shallower / deeper trees;
* k-NN frontier policy: boundary-point growth (paper) vs best-first;
* Voronoi seed count: walk length vs partial-cell residual cost;
* clustered vs unclustered row order -- why the in-database index
  needs clustering at all;
* space-filling curve: Morton vs Hilbert cell numbering locality.
"""

from __future__ import annotations

import numpy as np

from repro import (
    Database,
    KdTreeIndex,
    QueryWorkload,
    VoronoiIndex,
    knn_best_first,
    knn_boundary_points,
    polyhedron_full_scan,
)
from repro.datasets.sdss import BANDS
from repro.db.scan import range_scan
from repro.db.table import Table

from .conftest import print_table, scaled


def test_ablation_leaf_size(benchmark, bench_sample):
    """Pages touched at 1% selectivity vs tree depth around the √N rule."""

    def run():
        db = Database.in_memory(buffer_pages=None)
        workload = QueryWorkload(bench_sample.magnitudes, seed=3)
        polys = [workload.box_query(0.01).polyhedron(list(BANDS)) for _ in range(5)]
        n = len(bench_sample.magnitudes)
        sqrt_levels = int(round(np.log2(np.sqrt(n)))) + 1
        rows = []
        for delta in (-3, -1, 0, 1, 3):
            levels = sqrt_levels + delta
            index = KdTreeIndex.build(
                db,
                f"abl_leaf_{levels}",
                bench_sample.columns(),
                list(BANDS),
                num_levels=levels,
            )
            pages = []
            for poly in polys:
                _, stats = index.query_polyhedron(poly)
                pages.append(stats.pages_touched)
            stats_summary = index.tree.leaf_statistics()
            rows.append(
                [
                    levels,
                    int(stats_summary["num_leaves"]),
                    stats_summary["mean_leaf_size"],
                    float(np.mean(pages)),
                ]
            )
        return rows, sqrt_levels

    rows, sqrt_levels = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Ablation: kd-tree depth (√N rule -> {sqrt_levels} levels)",
        ["levels", "leaves", "rows_per_leaf", "mean_pages@1%"],
        rows,
    )
    # Deeper trees prune better in page terms until leaves shrink below a
    # page; the shallow extreme must be clearly worse than the rule.
    by_levels = {row[0]: row[3] for row in rows}
    assert by_levels[sqrt_levels - 3] > by_levels[sqrt_levels]


def test_ablation_knn_strategy(benchmark, bench_kd, bench_sample):
    """Boundary-point growth vs best-first: boxes and pages per query."""

    def run():
        rng = np.random.default_rng(8)
        picks = rng.choice(len(bench_sample.magnitudes), 12, replace=False)
        queries = bench_sample.magnitudes[picks] + rng.normal(0, 0.05, (12, 5))
        rows = []
        for k in (5, 50):
            bp_boxes, bf_boxes, bp_pages, bf_pages = [], [], [], []
            for query in queries:
                bp = knn_boundary_points(bench_kd, query, k)
                bf = knn_best_first(bench_kd, query, k)
                assert np.allclose(bp.distances, bf.distances)
                bp_boxes.append(bp.stats.extra["boxes_examined"])
                bf_boxes.append(bf.stats.extra["boxes_examined"])
                bp_pages.append(bp.stats.pages_touched)
                bf_pages.append(bf.stats.pages_touched)
            rows.append(
                [
                    k,
                    float(np.mean(bp_boxes)),
                    float(np.mean(bf_boxes)),
                    float(np.mean(bp_pages)),
                    float(np.mean(bf_pages)),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: k-NN frontier policy",
        ["k", "boundary_boxes", "best_first_boxes", "boundary_pages", "best_first_pages"],
        rows,
    )
    # Best-first with tight boxes is the stronger pruner (it examines no
    # box the result does not require); the paper's scheme stays within a
    # small factor of it -- that factor is the cost of its simplicity.
    for row in rows:
        assert row[1] <= row[2] * 6.0


def test_ablation_voronoi_seed_count(benchmark, bench_sample):
    """Nseed trade-off: walk hops vs partial-cell residual filtering."""

    def run():
        workload = QueryWorkload(bench_sample.magnitudes, seed=5)
        polys = [workload.box_query(0.02).polyhedron(list(BANDS)) for _ in range(4)]
        rng = np.random.default_rng(6)
        rows = []
        for num_seeds in (scaled(128), scaled(512), scaled(2048)):
            db = Database.in_memory(buffer_pages=None)
            index = VoronoiIndex.build(
                db,
                f"abl_vor_{num_seeds}",
                bench_sample.columns(),
                list(BANDS),
                num_seeds=num_seeds,
            )
            hops = []
            for _ in range(25):
                point = bench_sample.magnitudes[rng.integers(index.table.num_rows)]
                _, hop = index.locate(point, start=0)
                hops.append(hop)
            pages, partial_fraction = [], []
            for poly in polys:
                _, stats = index.query_polyhedron(poly)
                pages.append(stats.pages_touched)
                touched = stats.cells_inside + stats.cells_partial
                partial_fraction.append(
                    stats.cells_partial / max(touched, 1)
                )
            rows.append(
                [
                    num_seeds,
                    float(np.mean(hops)),
                    float(np.mean(partial_fraction)),
                    float(np.mean(pages)),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: Voronoi seed count",
        ["num_seeds", "walk_hops", "partial_cell_fraction", "mean_pages@2%"],
        rows,
    )
    # More seeds = finer cells = fewer pages per query.
    pages = [row[3] for row in rows]
    assert pages[-1] < pages[0]


def test_ablation_clustering(benchmark, bench_sample):
    """Clustered vs random row order: the reason clustering exists.

    Build the same kd-tree twice: once over a table clustered on the
    leaf id (the paper's design) and once over a table left in random
    order, where each leaf's rows are fetched by scattered row ids.
    """

    def run():
        db = Database.in_memory(buffer_pages=None)
        columns = bench_sample.columns()
        columns["oid"] = np.arange(len(columns["cls"]), dtype=np.int64)
        index = KdTreeIndex.build(db, "abl_clustered", columns, list(BANDS))
        tree = index.tree
        # Unclustered layout: the same rows, original (shuffled) order.
        unclustered = db.create_table("abl_unclustered", columns)
        # Map: clustered leaf -> original row ids, read off the clustered
        # table's own ``oid`` column.
        leaf_rows = {
            leaf: index.table.read_rows(*tree.node_rows(leaf))["oid"]
            for leaf in range(tree.first_leaf, 2 * tree.first_leaf)
        }
        rng = np.random.default_rng(9)
        clustered_pages, unclustered_pages = [], []
        for _ in range(30):
            leaf = int(rng.integers(tree.first_leaf, 2 * tree.first_leaf))
            start, end = tree.node_rows(leaf)
            _, c_stats = range_scan(index.table, start, end)
            clustered_pages.append(c_stats.pages_touched)
            touched = {
                unclustered.page_of_row(int(r)) for r in leaf_rows[leaf]
            }
            unclustered_pages.append(len(touched))
        return float(np.mean(clustered_pages)), float(np.mean(unclustered_pages))

    clustered, unclustered = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nAblation clustering: pages per leaf fetch -- clustered={clustered:.1f}, "
        f"unclustered={unclustered:.1f} ({unclustered / clustered:.1f}x more)"
    )
    # Without clustering every leaf fetch degenerates to ~one page per row.
    assert unclustered > 10 * clustered


def test_ablation_sfc_curve(benchmark, bench_sample, monkeypatch):
    """Morton vs Hilbert numbering: locality of multi-cell queries.

    Both curves produce the same per-cell ranges; the difference is how
    *contiguous* the set of touched cell ranges is for a spatial query --
    fewer, longer runs mean fewer seeks on a real disk.  The page ids
    come from the table's reads themselves.
    """
    read: dict[str, set[int]] = {}
    read_page, read_pages = Table.read_page, Table.read_pages

    def noting_page(table, page_id):
        read.setdefault(table.name, set()).add(page_id)
        return read_page(table, page_id)

    def noting_pages(table, page_ids):
        read.setdefault(table.name, set()).update(page_ids)
        return read_pages(table, page_ids)

    monkeypatch.setattr(Table, "read_page", noting_page)
    monkeypatch.setattr(Table, "read_pages", noting_pages)

    def run():
        workload = QueryWorkload(bench_sample.magnitudes, seed=10)
        polys = [workload.box_query(0.05).polyhedron(list(BANDS)) for _ in range(6)]
        results = {}
        for curve in ("morton", "hilbert"):
            db = Database.in_memory(buffer_pages=None)
            index = VoronoiIndex.build(
                db,
                f"abl_sfc_{curve}",
                bench_sample.columns(),
                list(BANDS),
                num_seeds=scaled(512),
                curve=curve,
            )
            run_counts = []
            for poly in polys:
                read.clear()
                index.query_polyhedron(poly)
                pages = sorted(read.get(index.table.name, ()))
                runs = 1 + sum(
                    1 for a, b in zip(pages, pages[1:]) if b != a + 1
                ) if pages else 0
                run_counts.append(runs)
            results[curve] = float(np.mean(run_counts))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nAblation SFC numbering: mean contiguous page runs per query -- "
        f"morton={results['morton']:.1f}, hilbert={results['hilbert']:.1f}"
    )
    # Hilbert should not be (much) worse; typically it is equal or better.
    assert results["hilbert"] <= results["morton"] * 1.3


def test_ablation_kd_vs_rtree(benchmark, bench_sample):
    """Kd-tree vs STR R-tree at matched leaf granularity.

    The paper's introduction positions the kd-tree against the classic
    R-tree family; this ablation runs both -- same engine, same clustered
    storage, same leaf size -- across the selectivity sweep, plus their
    leaf-shape statistics on the clustered color space.
    """
    from repro import RTreeIndex

    def run():
        db = Database.in_memory(buffer_pages=None)
        kd = KdTreeIndex.build(db, "cmp_kd", bench_sample.columns(), list(BANDS))
        leaf = int(kd.tree.leaf_statistics()["mean_leaf_size"])
        rtree = RTreeIndex.build(
            db, "cmp_rt", bench_sample.columns(), list(BANDS), leaf_capacity=leaf
        )
        workload = QueryWorkload(bench_sample.magnitudes, seed=11)
        rows = []
        for target in (0.002, 0.02, 0.15):
            kd_pages, rt_pages = [], []
            for _ in range(4):
                poly = workload.box_query(target).polyhedron(list(BANDS))
                _, kd_stats = kd.query_polyhedron(poly)
                _, rt_stats = rtree.query_polyhedron(poly)
                assert kd_stats.rows_returned == rt_stats.rows_returned
                kd_pages.append(kd_stats.pages_touched)
                rt_pages.append(rt_stats.pages_touched)
            rows.append(
                [target, float(np.mean(kd_pages)), float(np.mean(rt_pages))]
            )
        kd_shape = kd.tree.leaf_statistics()["mean_leaf_elongation"]
        rt_shape = rtree.leaf_statistics()["mean_leaf_elongation"]
        return rows, kd_shape, rt_shape

    rows, kd_shape, rt_shape = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: kd-tree vs STR R-tree (matched leaf size)",
        ["target_sel", "kd_pages", "rtree_pages"],
        rows,
    )
    print(f"mean leaf elongation: kd={kd_shape:.2f}, rtree={rt_shape:.2f}")
    # Both prune; results agree; either may win by small margins -- the
    # point is the comparison exists.  Sanity: both far below a scan.
    for row in rows[:2]:
        assert row[1] < 469
        assert row[2] < 469
