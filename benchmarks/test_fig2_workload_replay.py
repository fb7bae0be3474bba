"""E12 / Figure 2: SkyServer-style complex query workload replay.

Figure 2 shows one of the "top 100" complex spatial queries mined from
the May 2006 SkyServer log (12M+ user queries): conjunctions of linear
inequalities over magnitudes.  This bench replays a generated mix of
that family -- axis windows, color cuts, oblique Figure 2-style cuts,
plus the literal Figure 2 clause -- through the kd-tree index and the
full-scan baseline, reporting the per-kind outcome distribution.  The
baseline is the paper's "simple SQL query" (§3.2), zone maps off; the
zone-mapped scan's pages are reported beside it.
"""

from __future__ import annotations

import numpy as np

from repro import QueryWorkload, polyhedron_full_scan
from repro.datasets.sdss import BANDS

from .conftest import print_table


def test_fig2_workload_replay(benchmark, bench_kd, bench_sample):
    """Replay a mixed workload; report wins and page ratios per kind."""

    def run():
        workload = QueryWorkload(bench_sample.magnitudes, seed=2006)
        queries = workload.mixed(18, [0.005, 0.02, 0.1])
        queries.append(workload.figure2_query())
        by_kind: dict[str, list] = {}
        for query in queries:
            poly = query.polyhedron(list(BANDS))
            _, kd_stats = bench_kd.query_polyhedron(poly)
            _, scan_stats = polyhedron_full_scan(
                bench_kd.table, list(BANDS), poly, use_zone_maps=False
            )
            _, zone_stats = polyhedron_full_scan(bench_kd.table, list(BANDS), poly)
            assert kd_stats.rows_returned == scan_stats.rows_returned
            ratio = scan_stats.pages_touched / max(kd_stats.pages_touched, 1)
            selectivity = scan_stats.rows_returned / bench_kd.table.num_rows
            by_kind.setdefault(query.kind, []).append(
                (selectivity, ratio, zone_stats.pages_touched)
            )
        rows = []
        for kind, entries in sorted(by_kind.items()):
            sels = [e[0] for e in entries]
            ratios = [e[1] for e in entries]
            wins = sum(1 for r in ratios if r > 1.0)
            rows.append(
                [
                    kind,
                    len(entries),
                    float(np.mean(sels)),
                    float(np.median(ratios)),
                    float(np.max(ratios)),
                    f"{wins}/{len(entries)}",
                    float(np.mean([e[2] for e in entries])),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Figure 2 workload replay: kd-tree vs scan per query kind",
        [
            "kind",
            "queries",
            "mean_sel",
            "median_page_speedup",
            "max_page_speedup",
            "index_wins",
            "zone_pages",
        ],
        rows,
    )
    # Axis-window queries prune strongly; the literal Figure 2 cut is
    # selective and must win too.
    box_row = next(r for r in rows if r[0] == "box")
    fig2_row = next(r for r in rows if r[0] == "figure2")
    assert box_row[3] > 2.0
    assert fig2_row[3] >= 1.0


def test_fig2_literal_query_benchmark(benchmark, bench_kd, bench_sample):
    """Benchmark the paper's literal Figure 2 selection through the index."""
    workload = QueryWorkload(bench_sample.magnitudes, seed=1)
    poly = workload.figure2_query().polyhedron(list(BANDS))
    result = benchmark(lambda: bench_kd.query_polyhedron(poly))
    assert result[1].rows_returned >= 0


def test_fig2_verbatim_hybrid_execution(benchmark):
    """The *verbatim* Figure 2 text -- LOG10 terms, top-level OR and all.

    The full loop the paper sketches: a textual log query parses into an
    expression tree; the linear part relaxes into a union-of-polyhedra
    cover pushed into the kd-tree; the nonlinear residual evaluates only
    on the candidates.  Results are exact.
    """
    from repro import Database, KdTreeIndex, full_scan, hybrid_query, parse_where
    from repro import sdss_color_sample
    from repro.datasets.workload import FIGURE2_VERBATIM

    from .conftest import scaled

    def run():
        sample = sdss_color_sample(scaled(60_000), seed=7)
        cols = sample.extended_columns(seed=8)
        db = Database.in_memory(buffer_pages=None)
        dims = ["dered_g", "dered_r", "dered_i", "petroMag_r", "extinction_r"]
        index = KdTreeIndex.build(db, "fig2_hyb", cols, dims)
        expr = parse_where(FIGURE2_VERBATIM)
        rows, stats = hybrid_query(index, expr)
        _, scan_stats = full_scan(index.table, predicate=expr)
        assert stats.rows_returned == scan_stats.rows_returned
        return {
            "rows": stats.rows_returned,
            "candidates": stats.extra.get("candidates", 0),
            "cover_polyhedra": stats.extra.get("cover_polyhedra", 0),
            "hybrid_pages": stats.pages_touched,
            "scan_pages": scan_stats.pages_touched,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nverbatim Figure 2 via hybrid execution: {result['rows']} rows "
        f"from {result['candidates']} candidates "
        f"({result['cover_polyhedra']} cover polyhedra); "
        f"{result['hybrid_pages']} pages vs {result['scan_pages']} scan "
        f"({result['scan_pages'] / max(result['hybrid_pages'], 1):.1f}x fewer)"
    )
    assert result["hybrid_pages"] < result["scan_pages"]
    # The relaxation is nearly tight: few wasted candidates.
    assert result["candidates"] < 3 * max(result["rows"], 1) + 50
