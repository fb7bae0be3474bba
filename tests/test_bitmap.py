"""Unit tests of the hierarchical compressed bitmap layer.

The compressed bitmap is verified against plain numpy boolean masks
(the dense reference implementation) on randomized inputs; the bitmap
index's candidate sets are checked for the conservative-superset
property every executor depends on; persistence and merge rebuilds are
round-tripped.  Cross-engine row-identity tests live in
``test_planner_engines.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import Database, KdTreeIndex
from repro.bitmap import BitmapIndex, CompressedBitmap
from repro.bitmap.executor import bitmap_query
from repro.bitmap.index import axis_bounds
from repro.core.queries import polyhedron_full_scan
from repro.db import FaultInjector, FaultyStorage, RetryPolicy, StorageFault
from repro.db.persistence import attach_database, save_catalog
from repro.db.storage import MemoryStorage
from repro.geometry.halfspace import Halfspace, Polyhedron
from repro.ingest.merge import merge_table

DIMS = ["u", "g", "r"]


def _random_masks(rng, num_bits: int, density: float) -> np.ndarray:
    return rng.random(num_bits) < density


def _box(lo, hi) -> Polyhedron:
    halfspaces = []
    for axis, (low, high) in enumerate(zip(lo, hi)):
        e = np.zeros(len(lo))
        e[axis] = 1.0
        halfspaces.append(Halfspace(e, float(high)))
        halfspaces.append(Halfspace(-e, -float(low)))
    return Polyhedron(halfspaces)


def _table_data(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    data = {c: rng.normal(size=n) for c in DIMS}
    data["oid"] = np.arange(n, dtype=np.float64)
    return data


class TestCompressedBitmap:
    def test_round_trip_matches_dense_reference(self):
        rng = np.random.default_rng(5)
        for num_bits in (1, 63, 64, 65, 1000, 4096):
            for density in (0.0, 0.01, 0.3, 1.0):
                mask = _random_masks(rng, num_bits, density)
                bitmap = CompressedBitmap.from_mask(mask)
                assert bitmap.count() == int(mask.sum())
                assert bitmap.any() == bool(mask.any())
                assert np.array_equal(bitmap.to_mask(), mask)
                assert np.array_equal(bitmap.to_indices(), np.flatnonzero(mask))

    def test_and_or_match_dense_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            num_bits = int(rng.integers(1, 2000))
            a = _random_masks(rng, num_bits, rng.random() * 0.5)
            b = _random_masks(rng, num_bits, rng.random() * 0.5)
            ca, cb = CompressedBitmap.from_mask(a), CompressedBitmap.from_mask(b)
            assert np.array_equal((ca & cb).to_mask(), a & b)
            assert np.array_equal((ca | cb).to_mask(), a | b)
            assert ca.intersects(cb) == bool((a & b).any())

    def test_union_of_many(self):
        rng = np.random.default_rng(7)
        num_bits = 777
        masks = [_random_masks(rng, num_bits, 0.05) for _ in range(9)]
        union = CompressedBitmap.union(
            [CompressedBitmap.from_mask(m) for m in masks], num_bits
        )
        expected = np.logical_or.reduce(masks)
        assert np.array_equal(union.to_mask(), expected)

    def test_summary_hierarchy_shrinks_to_one_word(self):
        rng = np.random.default_rng(8)
        bitmap = CompressedBitmap.from_mask(_random_masks(rng, 1 << 14, 0.001))
        levels = bitmap.summaries
        assert levels, "a multi-word bitmap must carry summary levels"
        assert len(levels[-1]) == 1
        # Each summary word must flag exactly the nonzero children.
        dense_words = np.zeros(bitmap.total_words, dtype=np.uint64)
        dense_words[bitmap.word_index] = bitmap.words
        child = dense_words
        for level in levels:
            for parent_idx, parent_word in enumerate(level):
                for bit in range(64):
                    child_idx = parent_idx * 64 + bit
                    flagged = bool((int(parent_word) >> bit) & 1)
                    present = child_idx < len(child) and child[child_idx] != 0
                    assert flagged == present
            child = level

    def test_hierarchical_intersects_disjoint_sparse(self):
        # Two single-bit bitmaps a million bits apart: the coarsest
        # summary already proves disjointness.
        n = 1 << 20
        a = CompressedBitmap.from_indices(np.array([3]), n)
        b = CompressedBitmap.from_indices(np.array([n - 3]), n)
        assert not a.intersects(b)
        assert a.intersects(a)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(9)
        mask = _random_masks(rng, 513, 0.2)
        bitmap = CompressedBitmap.from_mask(mask)
        clone = CompressedBitmap.from_dict(bitmap.to_dict())
        assert np.array_equal(clone.to_mask(), mask)

    def test_incompatible_lengths_rejected(self):
        a = CompressedBitmap.empty(10)
        b = CompressedBitmap.empty(11)
        with pytest.raises(ValueError):
            _ = a & b


class TestBitmapIndex:
    def test_candidates_are_conservative_superset(self):
        data = _table_data(5000, seed=1)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        index = BitmapIndex.build(db, "t", DIMS)
        table = db.table("t")
        rng = np.random.default_rng(2)
        for _ in range(20):
            lo = rng.uniform(-2, 1, size=3)
            hi = lo + rng.uniform(0.05, 2.0, size=3)
            poly = _box(lo, hi)
            exact, _ = polyhedron_full_scan(table, DIMS, poly)
            candidates = set(index.candidate_rows(poly).tolist())
            assert set(exact["_row_id"].tolist()) <= candidates

    def test_membership_candidates_cover_matches(self):
        data = _table_data(3000, seed=3)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        index = BitmapIndex.build(db, "t", DIMS)
        table = db.table("t")
        values = np.sort(np.random.default_rng(4).choice(
            np.asarray(data["u"]), size=25, replace=False
        ))
        poly = _box([-10, -10, -10], [10, 10, 10])
        memberships = {"u": values}
        exact, _ = polyhedron_full_scan(table, DIMS, poly, memberships=memberships)
        candidates = set(
            index.candidate_rows(poly, memberships=memberships).tolist()
        )
        assert set(exact["_row_id"].tolist()) <= candidates
        # The IN list touches few bins, so pruning must actually bite.
        assert len(candidates) < table.num_rows

    def test_estimate_fraction_tracks_selectivity(self):
        data = _table_data(4000, seed=5)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        index = BitmapIndex.build(db, "t", DIMS)
        narrow = index.estimate_fraction(_box([0, 0, -9], [0.05, 0.05, 9]))
        wide = index.estimate_fraction(_box([-9, -9, -9], [9, 9, 9]))
        assert narrow is not None and wide is not None
        assert narrow < wide
        assert wide == pytest.approx(1.0, abs=1e-9)

    def test_axis_bounds_reads_axis_aligned_halfspaces_only(self):
        poly = Polyhedron(
            [
                Halfspace(np.array([1.0, 0.0, 0.0]), 2.0),
                Halfspace(np.array([-1.0, 0.0, 0.0]), 1.0),
                Halfspace(np.array([0.5, 0.5, 0.0]), 3.0),  # oblique: ignored
            ]
        )
        lows, highs = axis_bounds(poly, 3)
        assert highs[0] == pytest.approx(2.0)
        assert lows[0] == pytest.approx(-1.0)
        assert np.isinf(lows[1]) and np.isinf(highs[1])

    def test_build_requires_at_least_two_bins(self):
        data = _table_data(100, seed=6)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        with pytest.raises(ValueError):
            BitmapIndex.build(db, "t", DIMS, num_bins=1)


class TestBitmapPersistence:
    def test_catalog_round_trip(self, tmp_path):
        data = _table_data(2500, seed=7)
        db = Database.on_disk(tmp_path, buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        built = BitmapIndex.build(db, "t", DIMS)
        save_catalog(db)
        reopened = attach_database(tmp_path, buffer_pages=None)
        index = reopened.index_if_exists("t.bitmap")
        assert index is not None
        assert index.dims == built.dims
        assert index.num_bins == built.num_bins
        for dim in DIMS:
            assert np.array_equal(index.bin_edges(dim), built.bin_edges(dim))
        poly = _box([-0.4, -0.4, -9], [0.4, 0.4, 9])
        rows, _ = bitmap_query(index, poly)
        exact, _ = polyhedron_full_scan(reopened.table("t"), DIMS, poly)
        assert sorted(rows["oid"].tolist()) == sorted(exact["oid"].tolist())

    def test_old_catalogs_without_bitmaps_attach(self, tmp_path):
        data = _table_data(500, seed=8)
        db = Database.on_disk(tmp_path, buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        save_catalog(db)
        reopened = attach_database(tmp_path, buffer_pages=None)
        assert reopened.index_if_exists("t.bitmap") is None

    @pytest.mark.parametrize(
        "query_axes", [DIMS, [*DIMS, "i"]], ids=["equal-to-dims", "wider-than-dims"]
    )
    def test_persisted_query_axes_reattach_only_when_equal_to_dims(
        self, tmp_path, query_axes
    ):
        # Older catalogs stored the axes queries were phrased in as
        # ``table_dims``; only the value every index had in practice is
        # read back, anything else is refused by name.
        db = Database.on_disk(tmp_path, buffer_pages=None)
        KdTreeIndex.build(db, "t", _table_data(500, seed=9), DIMS)
        BitmapIndex.build(db, "t", DIMS)
        path = save_catalog(db)
        catalog = json.loads(path.read_text())
        (payload,) = catalog["bitmap_indexes"]
        assert "table_dims" not in payload
        payload["table_dims"] = query_axes
        path.write_text(json.dumps(catalog))
        if query_axes == DIMS:
            reopened = attach_database(tmp_path, buffer_pages=None)
            assert reopened.index_if_exists("t.bitmap").dims == DIMS
        else:
            with pytest.raises(ValueError, match=r"t\.bitmap"):
                attach_database(tmp_path, buffer_pages=None)


class TestBitmapUnderMerge:
    def test_merge_rebuilds_bitmap_over_new_generation(self):
        data = _table_data(3000, seed=9)
        db = Database.in_memory(buffer_pages=None)
        KdTreeIndex.build(db, "t", data, DIMS)
        BitmapIndex.build(db, "t", DIMS)
        db.ingest.insert(
            "t",
            {
                "u": np.array([0.01]),
                "g": np.array([0.02]),
                "r": np.array([0.03]),
                "oid": np.array([99999.0]),
                "kd_leaf": np.array([0.0]),
            },
        )
        report = merge_table(db, "t")
        assert report.merged
        index = db.index_if_exists("t.bitmap")
        assert index is not None
        assert index.table is db.table("t")
        poly = _box([-0.2, -0.2, -9], [0.2, 0.2, 9])
        rows, _ = bitmap_query(index, poly)
        exact, _ = polyhedron_full_scan(db.table("t"), DIMS, poly)
        assert sorted(rows["oid"].tolist()) == sorted(exact["oid"].tolist())
        assert 99999.0 in rows["oid"]

    def test_failed_rebuild_drops_stale_entry(self):
        injector = FaultInjector(seed=10)
        db = Database(
            FaultyStorage(MemoryStorage(), injector),
            buffer_pages=None,
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
        )
        data = _table_data(2000, seed=10)
        KdTreeIndex.build(db, "t", data, DIMS)
        BitmapIndex.build(db, "t", DIMS)
        db.ingest.insert(
            "t",
            {
                "u": np.array([0.0]),
                "g": np.array([0.0]),
                "r": np.array([0.0]),
                "oid": np.array([55555.0]),
                "kd_leaf": np.array([0.0]),
            },
        )
        # Fault storms during the merge can kill the bitmap rebuild (it
        # re-reads every page); whenever they do, the catalog must not
        # keep the old generation's entry around.
        injector.configure(read_fault_rate=0.6)
        try:
            merge_table(db, "t")
        except (StorageFault, ValueError):
            pytest.skip("merge itself died before reaching the bitmap rebuild")
        finally:
            injector.quiesce()
        index = db.index_if_exists("t.bitmap")
        if index is not None:
            # Rebuild survived the storm: it must serve the new layout.
            assert index.table is db.table("t")
        else:
            # Entry dropped: queries degrade but never see stale state.
            assert db.index_if_exists("t.kdtree") is not None
