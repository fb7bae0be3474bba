"""Scaling study: how the index advantage grows with table size.

The paper's headline ("orders of magnitudes") is measured at 270M rows;
our default benches run at 60K.  This study sweeps N and shows the
low-selectivity page ratio *growing* with N -- the evidence that the
default-scale numbers extrapolate in the paper's direction.  The
mechanism is simple: a fixed-selectivity query touches O(result) pages
through the index but O(N) pages in a scan, so the ratio scales like
N / result.  The scan is the paper's "simple SQL query" (§3.2), zone
maps off; the zone-mapped scan's pages are reported beside it.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Database, KdTreeIndex, polyhedron_full_scan, sdss_color_sample
from repro.datasets import QueryWorkload
from repro.datasets.sdss import BANDS

from .conftest import print_table, scaled


def test_scale_page_ratio_grows_with_n(benchmark):
    """Fixed 0.2% selectivity across N: page speedup vs table size."""

    def run():
        rows = []
        for n in (scaled(15_000), scaled(60_000), scaled(240_000)):
            sample = sdss_color_sample(n, seed=99)
            db = Database.in_memory(buffer_pages=None)
            build_start = time.perf_counter()
            index = KdTreeIndex.build(db, f"scale_{n}", sample.columns(), list(BANDS))
            build_time = time.perf_counter() - build_start
            workload = QueryWorkload(sample.magnitudes, seed=3)
            ratios, zone_pages = [], []
            for _ in range(4):
                poly = workload.box_query(0.002).polyhedron(list(BANDS))
                _, kd_stats = index.query_polyhedron(poly)
                _, scan_stats = polyhedron_full_scan(
                    index.table, list(BANDS), poly, use_zone_maps=False
                )
                _, zone_stats = polyhedron_full_scan(index.table, list(BANDS), poly)
                assert kd_stats.rows_returned == scan_stats.rows_returned
                ratios.append(
                    scan_stats.pages_touched / max(kd_stats.pages_touched, 1)
                )
                zone_pages.append(zone_stats.pages_touched)
            rows.append(
                [
                    n,
                    index.table.num_pages,
                    index.tree.num_leaves,
                    float(np.mean(ratios)),
                    build_time,
                    float(np.mean(zone_pages)),
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Scale study: page speedup at 0.2% selectivity vs N",
        ["rows", "pages", "leaves", "page_speedup", "build_s", "zone_pages"],
        rows,
    )
    speedups = [row[3] for row in rows]
    # The advantage grows with N (the extrapolation to the paper's
    # "orders of magnitudes" at 270M).  Leaf sizes also grow as sqrt(N),
    # so the observed growth is sub-proportional but steadily upward.
    assert speedups == sorted(speedups)
    assert speedups[-1] > 1.3 * speedups[0]
    # Build time stays near-linear: 16x rows under ~48x time.
    assert rows[-1][4] < 48 * max(rows[0][4], 1e-3)
