"""The paper's count-based claims, checked against its own baseline.

Figure 5 and §3.4 compare an index with "simple SQL queries" (§3.2): a
scan of every page.  Here that is :func:`polyhedron_full_scan` with zone
maps off.  Only pages and cells are asserted, never seconds, on tables
of at most 20k rows; ``benchmarks/`` runs the same claims at 60k-240k
rows and prints the timings.
"""

from __future__ import annotations

import numpy as np

from repro import (
    Database,
    KdTreeIndex,
    QueryWorkload,
    VoronoiIndex,
    polyhedron_full_scan,
    sdss_color_sample,
)
from repro.datasets.sdss import BANDS

DIMS = list(BANDS)


def _true_scan_pages(index, poly) -> tuple[int, int]:
    """``(pages, rows)`` of the every-page scan, checked against the index."""
    rows, stats = polyhedron_full_scan(index.table, DIMS, poly, use_zone_maps=False)
    return stats.pages_touched, len(rows["_row_id"])


def _kd_page_ratio(index, workload, target: float, queries: int) -> float:
    """True-scan pages over kd pages, summed over ``queries`` box queries."""
    kd_pages = scan_pages = 0
    for _ in range(queries):
        poly = workload.box_query(target).polyhedron(DIMS)
        _, stats = index.query_polyhedron(poly)
        pages, rows = _true_scan_pages(index, poly)
        assert stats.rows_returned == rows
        kd_pages += stats.pages_touched
        scan_pages += pages
    return scan_pages / kd_pages


def _kd_index(n: int) -> tuple[KdTreeIndex, QueryWorkload]:
    """A kd index over ``n`` SDSS-like rows, and box queries drawn from them."""
    sample = sdss_color_sample(n, seed=99)
    db = Database.in_memory(buffer_pages=None)
    index = KdTreeIndex.build(db, "kd", sample.columns(), DIMS)
    return index, QueryWorkload(sample.magnitudes, seed=3)


def test_kd_page_ratio_is_large_when_selective_and_falls_with_selectivity():
    """Figure 5: a large win near 0.1% selectivity, decaying toward parity."""
    index, workload = _kd_index(20_000)
    ratios = [_kd_page_ratio(index, workload, t, 4) for t in (0.001, 0.02, 0.25, 0.6)]
    assert ratios[0] > 5.0
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < 3.0


def test_kd_page_ratio_grows_with_table_size():
    """A fixed-selectivity query reads O(result) pages, the scan O(N)."""
    ratios = []
    for n in (5_000, 20_000):
        index, workload = _kd_index(n)
        ratios.append(_kd_page_ratio(index, workload, 0.002, 8))
    assert ratios[1] > 1.3 * ratios[0]


def test_voronoi_rejects_most_cells_and_reads_under_half_the_scan():
    """§3.4: selective queries reject most cells outright and beat the scan."""
    sample = sdss_color_sample(20_000, seed=99)
    index = VoronoiIndex.build(
        Database.in_memory(buffer_pages=None),
        "vor",
        sample.columns(),
        DIMS,
        num_seeds=int(np.sqrt(20_000) * 2),
    )
    workload = QueryWorkload(sample.magnitudes, seed=9)
    for _ in range(3):
        poly = workload.box_query(0.002).polyhedron(DIMS)
        _, stats = index.query_polyhedron(poly)
        pages, rows = _true_scan_pages(index, poly)
        assert stats.rows_returned == rows
        assert stats.cells_outside > index.num_cells / 2
        assert stats.pages_touched < pages / 2
