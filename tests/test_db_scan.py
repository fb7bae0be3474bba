"""Tests for scan executors."""

import numpy as np
import pytest

from repro.db import Col, Database, full_scan, range_scan


@pytest.fixture()
def table_and_data():
    db = Database.in_memory(buffer_pages=None)
    rng = np.random.default_rng(5)
    data = {"a": rng.normal(size=500), "b": rng.normal(size=500)}
    table = db.create_table("t", data, rows_per_page=64)
    return db, table, data


class TestFullScan:
    def test_no_predicate_returns_everything(self, table_and_data):
        _, table, data = table_and_data
        rows, stats = full_scan(table)
        assert stats.rows_returned == 500
        assert stats.pages_touched == table.num_pages
        assert np.allclose(rows["a"], data["a"])
        assert np.array_equal(rows["_row_id"], np.arange(500))

    def test_expression_predicate(self, table_and_data):
        _, table, data = table_and_data
        rows, stats = full_scan(table, predicate=Col("a") > 0.0)
        assert stats.rows_returned == int((data["a"] > 0).sum())
        assert (rows["a"] > 0).all()

    def test_callable_predicate(self, table_and_data):
        _, table, data = table_and_data
        rows, _ = full_scan(table, predicate=lambda cols: cols["b"] < cols["a"])
        assert (rows["b"] < rows["a"]).all()

    def test_projection(self, table_and_data):
        _, table, _ = table_and_data
        rows, _ = full_scan(table, columns=["b"])
        assert set(rows) == {"b", "_row_id"}

    def test_empty_result_keeps_dtypes(self, table_and_data):
        _, table, _ = table_and_data
        rows, stats = full_scan(table, predicate=Col("a") > 1e9)
        assert stats.rows_returned == 0
        assert rows["a"].dtype == np.float64
        assert rows["_row_id"].dtype == np.int64

    def test_rows_examined_counts_all(self, table_and_data):
        _, table, _ = table_and_data
        _, stats = full_scan(table, predicate=Col("a") > 1e9)
        assert stats.rows_examined == 500
        assert stats.filter_efficiency == 0.0


class TestRangeScan:
    def test_range_rows(self, table_and_data):
        _, table, data = table_and_data
        rows, stats = range_scan(table, 100, 200)
        assert stats.rows_returned == 100
        assert np.allclose(rows["a"], data["a"][100:200])
        assert rows["_row_id"].tolist() == list(range(100, 200))

    def test_touches_minimal_pages(self, table_and_data):
        db, table, _ = table_and_data
        db.cold_cache()
        db.reset_io_stats()
        _, stats = range_scan(table, 64, 128)
        assert stats.pages_touched == 1
        assert db.io_stats.page_reads == 1

    def test_range_with_predicate(self, table_and_data):
        _, table, data = table_and_data
        rows, _ = range_scan(table, 0, 250, predicate=Col("a") > 0.0)
        expected = np.flatnonzero(data["a"][:250] > 0.0)
        assert np.array_equal(rows["_row_id"], expected)

    def test_empty_range(self, table_and_data):
        _, table, _ = table_and_data
        rows, stats = range_scan(table, 200, 100)
        assert stats.rows_returned == 0
        assert stats.pages_touched == 0
        assert len(rows["a"]) == 0

    def test_clamped_range(self, table_and_data):
        _, table, _ = table_and_data
        rows, _ = range_scan(table, 450, 10_000)
        assert len(rows["a"]) == 50


class TestQueryStats:
    def test_merge(self, table_and_data):
        _, table, _ = table_and_data
        _, s1 = range_scan(table, 0, 100)
        _, s2 = range_scan(table, 100, 200)
        s1.merge(s2)
        assert s1.rows_returned == 200
        assert s1.pages_touched >= 2

    def test_filter_efficiency_no_rows(self):
        from repro.db.stats import QueryStats

        assert QueryStats().filter_efficiency == 1.0


class TestScansNeverWriteIntoCachedPages:
    """A predicate may hand back the page's own array as its mask."""

    @pytest.mark.parametrize("scan", ["full", "range"])
    def test_bool_column_predicate_with_tombstones(self, scan):
        db = Database.in_memory(buffer_pages=None)
        flags = np.ones(512, dtype=bool)
        table = db.create_table(
            "t", {"flag": flags, "v": np.arange(512.0)}, rows_per_page=128
        )
        deleted = np.arange(100, dtype=np.int64)
        table.delete_rows(deleted)
        # ``Col("flag")`` evaluates to the cached page's ``flag`` array
        # itself; suppressing tombstones must not be done in place on it.
        if scan == "full":
            rows, _ = full_scan(table, predicate=Col("flag"))
        else:
            rows, _ = range_scan(table, 0, 512, predicate=Col("flag"))
        assert np.array_equal(rows["_row_id"], np.arange(100, 512))
        assert table.read_page(0).columns["flag"].all()
        # What a merge runs: main layout only, tombstones ignored.
        main, _ = full_scan(table, tombstones=None, include_delta=False)
        assert main["flag"].all() and len(main["flag"]) == 512
