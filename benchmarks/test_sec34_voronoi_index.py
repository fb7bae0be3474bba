"""E6 / §3.4: the sampled Voronoi index as a query accelerator.

Paper: "This index can be used to speed up polyhedron queries: for each
of the Nseed cells, we determine whether it is contained in the query or
outside of it - in which case we return or reject, respectively, all
points with that index -, or if it partially intersects, in which case
we run the polyhedron SQL query", and "to find the containing cell we
used a directed walk on the Delaunay graph, which on average takes
O(sqrt(Nseed)) steps."

The scan baseline is the paper's "simple SQL query" (§3.2), zone maps
off; the zone-mapped scan's pages are reported beside it.
"""

from __future__ import annotations

import numpy as np

from repro import Database, QueryWorkload, VoronoiIndex, polyhedron_full_scan
from repro.datasets.sdss import BANDS

from .conftest import print_table, scaled


def _build_index(bench_sample, num_seeds=None):
    db = Database.in_memory(buffer_pages=None)
    num_seeds = num_seeds or max(64, int(np.sqrt(len(bench_sample.magnitudes)) * 2))
    return VoronoiIndex.build(
        db, "vor34", bench_sample.columns(), list(BANDS), num_seeds=num_seeds
    )


def test_sec34_polyhedron_queries(benchmark, bench_sample):
    """Correctness + cell classification + I/O table across selectivity."""

    def run():
        index = _build_index(bench_sample)
        workload = QueryWorkload(bench_sample.magnitudes, seed=9)
        rows = []
        for target in (0.002, 0.02, 0.15):
            v_pages, s_pages, z_pages, inside, outside, partial = [], [], [], [], [], []
            for _ in range(3):
                poly = workload.box_query(target).polyhedron(list(BANDS))
                _, v_stats = index.query_polyhedron(poly)
                _, s_stats = polyhedron_full_scan(
                    index.table, list(BANDS), poly, use_zone_maps=False
                )
                _, z_stats = polyhedron_full_scan(index.table, list(BANDS), poly)
                assert v_stats.rows_returned == s_stats.rows_returned
                v_pages.append(v_stats.pages_touched)
                s_pages.append(s_stats.pages_touched)
                z_pages.append(z_stats.pages_touched)
                inside.append(v_stats.cells_inside)
                outside.append(v_stats.cells_outside)
                partial.append(v_stats.cells_partial)
            rows.append(
                [
                    target,
                    float(np.mean(inside)),
                    float(np.mean(outside)),
                    float(np.mean(partial)),
                    float(np.mean(v_pages)),
                    float(np.mean(s_pages)),
                    float(np.mean(s_pages)) / max(float(np.mean(v_pages)), 1e-9),
                    float(np.mean(z_pages)),
                ]
            )
        return index, rows

    index, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "§3.4 Voronoi index polyhedron queries",
        [
            "target_sel",
            "cells_in",
            "cells_out",
            "cells_partial",
            "vor_pages",
            "scan_pages",
            "page_speedup",
            "zone_pages",
        ],
        rows,
    )
    # Selective queries reject most cells outright and beat the scan.
    assert rows[0][2] > index.num_cells * 0.5
    assert rows[0][6] > 2.0


def test_sec34_walk_hops_scale(benchmark, bench_sample):
    """Directed-walk hop count grows like O(sqrt(Nseed))."""

    def run():
        rng = np.random.default_rng(10)
        rows = []
        for num_seeds in (scaled(128), scaled(512), scaled(2048)):
            index = _build_index(bench_sample, num_seeds=num_seeds)
            hops = []
            for _ in range(40):
                pick = rng.integers(len(bench_sample.magnitudes))
                point = bench_sample.magnitudes[pick] + rng.normal(0, 0.05, 5)
                _, hop_count = index.locate(point, start=0)
                hops.append(hop_count)
            rows.append([num_seeds, float(np.mean(hops)), float(np.sqrt(num_seeds))])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "§3.4 directed walk: hops vs sqrt(Nseed)",
        ["num_seeds", "mean_hops", "sqrt(Nseed)"],
        rows,
    )
    # 16x seeds -> hops grow far less than 16x (sublinear, ~4x expected).
    growth = rows[-1][1] / max(rows[0][1], 0.5)
    assert growth < 8.0


def test_sec34_voronoi_query_benchmark(benchmark, bench_sample):
    """Benchmark one selective polyhedron query through the index."""
    index = _build_index(bench_sample)
    workload = QueryWorkload(bench_sample.magnitudes, seed=12)
    poly = workload.box_query(0.01).polyhedron(list(BANDS))
    result = benchmark(lambda: index.query_polyhedron(poly))
    assert result[1].rows_returned >= 0
