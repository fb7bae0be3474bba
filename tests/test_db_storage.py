"""Tests for the storage backends and the buffer pool."""

import numpy as np
import pytest

from repro.db import BufferPool, FileStorage, MemoryStorage, Page


def page(page_id, n=8):
    return Page(page_id=page_id, start_row=page_id * n, columns={"a": np.arange(n) + page_id})


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryStorage()
    return FileStorage(tmp_path / "pages")


class TestStorage:
    def test_write_read_roundtrip(self, storage):
        storage.write_page("t", page(0))
        got = storage.read_page("t", 0)
        assert np.array_equal(got.columns["a"], np.arange(8))

    def test_missing_page_keyerror(self, storage):
        with pytest.raises(KeyError):
            storage.read_page("t", 42)

    def test_io_counters(self, storage):
        storage.write_page("t", page(0))
        storage.write_page("t", page(1))
        storage.read_page("t", 0)
        assert storage.stats.page_writes == 2
        assert storage.stats.page_reads == 1
        assert storage.stats.bytes_written > 0
        assert storage.stats.bytes_read > 0

    def test_num_pages(self, storage):
        assert storage.num_pages("t") == 0
        storage.write_page("t", page(0))
        storage.write_page("t", page(1))
        assert storage.num_pages("t") == 2

    def test_overwrite_same_id(self, storage):
        storage.write_page("t", page(0))
        storage.write_page("t", page(0))
        assert storage.num_pages("t") == 1

    def test_namespaces_isolated(self, storage):
        storage.write_page("a", page(0))
        storage.write_page("b", page(0, n=4))
        assert storage.read_page("a", 0).num_rows == 8
        assert storage.read_page("b", 0).num_rows == 4

    def test_drop_namespace(self, storage):
        storage.write_page("t", page(0))
        storage.drop_namespace("t")
        assert storage.num_pages("t") == 0
        with pytest.raises(KeyError):
            storage.read_page("t", 0)

    def test_drop_absent_namespace_is_noop(self, storage):
        storage.drop_namespace("ghost")


class TestBufferPool:
    def test_cache_hit_avoids_storage_read(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=4)
        pool.put("t", page(0))
        reads_before = storage.stats.page_reads
        pool.get("t", 0)
        pool.get("t", 0)
        assert storage.stats.page_reads == reads_before
        assert storage.stats.cache_hits == 2

    def test_lru_eviction(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=2)
        for page_id in range(3):
            pool.put("t", page(page_id))
        # page 0 is the least recently used -> evicted.
        storage.stats.reset()
        pool.get("t", 0)
        assert storage.stats.cache_misses == 1
        assert storage.stats.page_reads == 1

    def test_get_refreshes_lru_order(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=2)
        pool.put("t", page(0))
        pool.put("t", page(1))
        pool.get("t", 0)  # 0 becomes most recent
        pool.put("t", page(2))  # evicts 1
        storage.stats.reset()
        pool.get("t", 0)
        assert storage.stats.cache_hits == 1
        pool.get("t", 1)
        assert storage.stats.cache_misses == 1

    def test_unbounded_pool(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=None)
        for page_id in range(100):
            pool.put("t", page(page_id))
        assert len(pool) == 100

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            BufferPool(MemoryStorage(), capacity_pages=0)

    def test_invalidate_namespace(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=10)
        pool.put("a", page(0))
        pool.put("b", page(0))
        pool.invalidate("a")
        storage.stats.reset()
        pool.get("a", 0)
        assert storage.stats.cache_misses == 1
        pool.get("b", 0)
        assert storage.stats.cache_hits == 1

    def test_clear(self):
        storage = MemoryStorage()
        pool = BufferPool(storage, capacity_pages=10)
        pool.put("t", page(0))
        pool.clear()
        assert len(pool) == 0


class TestPoolAccounting:
    """A miss is a page read from storage; a hit is a request without one."""

    @staticmethod
    def _cold_pool(num_pages=8):
        storage = MemoryStorage()
        for page_id in range(num_pages):
            storage.write_page("t", page(page_id))
        storage.stats.reset()
        return storage, BufferPool(storage, capacity_pages=16)

    def _counts(self, storage):
        io = storage.stats.as_dict()
        return {k: io[k] for k in ("page_reads", "cache_hits", "cache_misses", "coalesced_reads")}

    def test_prefetch_then_get_counts_one_miss_and_one_hit_per_page(self):
        storage, pool = self._cold_pool()
        assert pool.prefetch("t", range(8)) == 8
        assert self._counts(storage) == {
            "page_reads": 8, "cache_hits": 0, "cache_misses": 8, "coalesced_reads": 1,
        }
        for page_id in range(8):
            pool.get("t", page_id)
        assert self._counts(storage) == {
            "page_reads": 8, "cache_hits": 8, "cache_misses": 8, "coalesced_reads": 1,
        }

    def test_cold_get_many_is_all_misses_in_one_read(self):
        storage, pool = self._cold_pool()
        pages = pool.get_many("t", list(range(8)))
        assert [p.page_id for p in pages] == list(range(8))
        assert pages.fetched == 8
        assert self._counts(storage) == {
            "page_reads": 8, "cache_hits": 0, "cache_misses": 8, "coalesced_reads": 1,
        }
        assert storage.stats.pages_prefetched == 8

    def test_warm_get_many_is_all_hits_and_no_read(self):
        storage, pool = self._cold_pool()
        pool.get_many("t", list(range(8)))
        storage.stats.reset()
        pages = pool.get_many("t", list(range(8)))
        assert [p.page_id for p in pages] == list(range(8))
        assert pages.fetched == 0
        assert self._counts(storage) == {
            "page_reads": 0, "cache_hits": 8, "cache_misses": 0, "coalesced_reads": 0,
        }

    def test_partly_warm_get_many_reads_only_the_misses(self):
        storage, pool = self._cold_pool()
        pool.get("t", 2)
        pool.get("t", 5)
        storage.stats.reset()
        pages = pool.get_many("t", list(range(8)))
        assert [p.page_id for p in pages] == list(range(8))
        assert pages.fetched == 6
        assert self._counts(storage) == {
            "page_reads": 6, "cache_hits": 2, "cache_misses": 6, "coalesced_reads": 1,
        }

    def test_get_many_returns_its_pages_even_past_capacity(self):
        storage, _ = self._cold_pool()
        pool = BufferPool(storage, capacity_pages=2)
        pages = pool.get_many("t", list(range(8)))
        assert [int(p.columns["a"][0]) for p in pages] == list(range(8))
        assert len(pool) == 2


class TestPutOwnsItsPages:
    def test_writer_mutation_after_create_does_not_reach_readers(self):
        from repro import Database

        db = Database.in_memory(buffer_pages=None)
        x = np.arange(4, dtype=np.float64)
        table = db.create_table("t", {"x": x})
        x[:] = -1  # the caller keeps writing into its own array
        cached = table.read_page(0).columns["x"].copy()
        db.buffer_pool.clear()
        stored = table.read_page(0).columns["x"]
        assert cached.tolist() == stored.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_cached_put_pages_are_read_only(self):
        pool = BufferPool(MemoryStorage(), capacity_pages=4)
        written = page(0)
        pool.put("t", written)
        cached = pool.get("t", 0)
        assert cached.columns["a"].flags.writeable is False
        assert not np.shares_memory(cached.columns["a"], written.columns["a"])
        assert written.columns["a"].flags.writeable  # the writer's array is untouched


class TestFileStorageOnDisk:
    def test_files_actually_exist(self, tmp_path):
        storage = FileStorage(tmp_path / "db")
        storage.write_page("t", page(0))
        files = list((tmp_path / "db" / "t").iterdir())
        assert len(files) == 1
        assert files[0].suffix == ".page"

    def test_survives_reopen(self, tmp_path):
        FileStorage(tmp_path / "db").write_page("t", page(5))
        reopened = FileStorage(tmp_path / "db")
        got = reopened.read_page("t", 5)
        assert got.start_row == 40
