"""E1 / Figure 5: kd-tree index vs full table scan across selectivity.

Paper claims: "if the ratio of the returned / total number of rows is
below 0.25 kd-trees can outperform simple SQL queries by orders of
magnitudes" and "for typical queries, where the number of returned points
is a small fraction of the dataset, using the kd-tree index can speed up
the query by orders of magnitudes."

This bench sweeps target selectivity, runs each query both ways, and
reports rows returned, pages touched and wall-clock time -- the x/y of
Figure 5 plus the I/O profile that drives it.  (The paper's y-axis is
disk time on a 2 TB table; in-process the I/O win shows up as the
pages-touched ratio, with a smaller wall-clock ratio on top.)

The baseline is the paper's "simple SQL query" (§3.2): a scan of every
page, zone maps off.  The zone-mapped scan -- a third access path the
paper does not have -- is reported beside it as ``zone_pages``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import QueryWorkload, polyhedron_full_scan, selectivity
from repro.datasets.sdss import BANDS

from .conftest import print_table

SELECTIVITIES = [0.001, 0.005, 0.02, 0.08, 0.25, 0.6]


def _run_pair(kd, poly):
    start = time.perf_counter()
    _, kd_stats = kd.query_polyhedron(poly)
    kd_time = time.perf_counter() - start
    start = time.perf_counter()
    _, scan_stats = polyhedron_full_scan(kd.table, list(BANDS), poly, use_zone_maps=False)
    scan_time = time.perf_counter() - start
    start = time.perf_counter()
    _, zone_stats = polyhedron_full_scan(kd.table, list(BANDS), poly)
    zone_time = time.perf_counter() - start
    assert kd_stats.rows_returned == scan_stats.rows_returned == zone_stats.rows_returned
    return kd_stats, kd_time, scan_stats, scan_time, zone_stats.pages_touched, zone_time


def _sweep(bench_kd, bench_sample):
    workload = QueryWorkload(bench_sample.magnitudes, seed=42)
    total_rows = bench_kd.table.num_rows
    rows = []
    page_ratios = {}
    for target in SELECTIVITIES:
        kd_pages, scan_pages, zone_pages, sels = [], [], [], []
        kd_times, scan_times, zone_times = [], [], []
        for _ in range(4):
            poly = workload.box_query(target).polyhedron(list(BANDS))
            kd_stats, kd_time, scan_stats, scan_time, zoned, zone_time = _run_pair(
                bench_kd, poly
            )
            kd_pages.append(kd_stats.pages_touched)
            scan_pages.append(scan_stats.pages_touched)
            zone_pages.append(zoned)
            kd_times.append(kd_time)
            scan_times.append(scan_time)
            zone_times.append(zone_time)
            sels.append(selectivity(scan_stats, total_rows))
        page_ratio = np.mean(scan_pages) / max(np.mean(kd_pages), 1e-9)
        page_ratios[target] = page_ratio
        rows.append(
            [
                target,
                float(np.mean(sels)),
                float(np.mean(kd_pages)),
                1e3 * float(np.mean(kd_times)),
                float(np.mean(zone_pages)),
                1e3 * float(np.mean(zone_times)),
                float(np.mean(scan_pages)),
                1e3 * float(np.mean(scan_times)),
                page_ratio,
                float(np.mean(scan_times) / max(np.mean(kd_times), 1e-9)),
            ]
        )
    return rows, page_ratios


def test_fig5_selectivity_sweep(benchmark, bench_kd, bench_sample):
    """The Figure 5 sweep: page and time ratios per selectivity bucket."""
    rows, page_ratios = benchmark.pedantic(
        _sweep, args=(bench_kd, bench_sample), rounds=1, iterations=1
    )
    print_table(
        "Figure 5: kd-tree vs full scan",
        [
            "target_sel",
            "actual_sel",
            "kd_pages",
            "kd_ms",
            "zone_pages",
            "zone_ms",
            "scan_pages",
            "scan_ms",
            "page_speedup",
            "time_speedup",
        ],
        rows,
    )
    # Paper shape: large wins at low selectivity...
    assert page_ratios[0.001] > 5.0
    # ... decaying toward parity as selectivity grows past ~0.25.
    assert page_ratios[0.6] < page_ratios[0.001]
    assert page_ratios[0.6] < 3.0


def test_fig5_query_time_benchmark(benchmark, bench_kd, bench_sample):
    """Benchmark one typical (1% selectivity) indexed polyhedron query."""
    workload = QueryWorkload(bench_sample.magnitudes, seed=7)
    poly = workload.box_query(0.01).polyhedron(list(BANDS))
    result = benchmark(lambda: bench_kd.query_polyhedron(poly))
    assert result[1].rows_returned >= 0


def test_fig5_scan_time_benchmark(benchmark, bench_kd, bench_sample):
    """Benchmark the same query as a full scan (the Figure 5 baseline)."""
    workload = QueryWorkload(bench_sample.magnitudes, seed=7)
    poly = workload.box_query(0.01).polyhedron(list(BANDS))
    result = benchmark(
        lambda: polyhedron_full_scan(bench_kd.table, list(BANDS), poly, use_zone_maps=False)
    )
    assert result[1].rows_returned >= 0
