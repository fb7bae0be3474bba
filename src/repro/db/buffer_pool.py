"""LRU buffer pool over a page store, with a decoded-page cache.

The buffer pool is the engine's RAM: the paper's server had 8 GB (with AWE
tricks to use it all); we model memory pressure as a configurable page
budget.  A query that touches a small clustered range of pages runs from
cache on repeat; a full scan of a table larger than the pool thrashes --
exactly the contrast the layered grid / kd-tree / Voronoi indexes exploit.

Two caches, two costs.  The primary cache models *page frames*: a hit
skips the storage read entirely.  Behind it sits the **decoded-page
cache**, keyed by ``(namespace, page_id, stored checksum)`` and bounded
by an approximate byte budget: when a primary miss re-reads bytes whose
stored CRC matches an already-decoded copy, the pool skips both the CRC
verification and :meth:`~repro.db.pages.PageCodec.decode` (counted as
``decode_hits``).  A page is CRC-verified exactly once per distinct byte
content (counted as ``checksum_verifications``); torn bytes surface as
:class:`~repro.db.errors.CorruptPageError` on first load, where fault
injection expects to see them.

The unit of a cold read is the **run**: :meth:`get_many` takes a batch
of wanted page ids (a read-ahead run of the scan layer) under one lock
acquisition, answers the cached ones, and reads every miss with a single
multi-page storage request (``coalesced_reads`` / ``pages_prefetched``
counters).  :meth:`prefetch` and the miss path of :meth:`get` go through
the same run reader, so a page is loaded by exactly one code path.
Faulted requests are retried under the pool's bounded exponential
backoff (:class:`repro.db.faults.RetryPolicy`); a request that exhausts
the budget, or a torn page inside a good one, falls back to reading
those pages one at a time under the same retry policy per page before
faults propagate.

Hits and misses count *storage reads*, not calls: every page a run reads
from storage counts one ``cache_misses``, and a ``cache_hits`` is a page
request answered without one.  A prefetch counts the misses it reads and
no hits, so a cold prefetch followed by gets of the same pages reads as
one miss and one hit per page.

Cached pages are shared by every query and must never change under
them: decoded pages are read-only views (:mod:`repro.db.pages`), and
:meth:`put` caches read-only copies, never the writer's arrays.

The pool is shared by every worker of the concurrent query service, so
all cache operations hold an internal lock: the LRU ``OrderedDict`` is
never observed mid-reorder and hit/miss counts are never dropped.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.db.errors import CorruptPageError, StorageFault
from repro.db.faults import RetryPolicy, call_with_retries
from repro.db.pages import Page, PageCodec
from repro.db.storage import Storage

__all__ = [
    "BufferPool",
    "DEFAULT_DECODED_BYTES",
    "DEFAULT_INDEX_CACHE_BYTES",
    "DEFAULT_READAHEAD_PAGES",
    "PageRun",
]

#: Default byte budget of the decoded-page cache (~8K pages of the
#: default SDSS magnitude schema).
DEFAULT_DECODED_BYTES = 64 << 20

#: Default byte budget of a paged kd-tree's decoded node cache
#: (:mod:`repro.core.kdpaged`).  Deliberately small relative to the
#: node arrays of a deep tree: the paged tree is the "index bigger than
#: RAM" configuration, so its working set must not silently grow to the
#: whole index.
DEFAULT_INDEX_CACHE_BYTES = 4 << 20

#: Default coalescing window of the scan layer's read-ahead: how many
#: adjacent surviving pages ride in one multi-page storage request.
DEFAULT_READAHEAD_PAGES = 8


class PageRun(list):
    """The pages of one run read, in request order.

    ``fetched`` counts the pages the run's coalesced storage request
    pulled in (the per-query ``pages_prefetched``).
    """

    fetched: int = 0


def _frozen_copy(page: Page) -> Page:
    """``page`` over read-only copies of its columns, owned by the pool."""
    columns = {}
    for name, arr in page.columns.items():
        arr = np.array(arr)
        arr.flags.writeable = False
        columns[name] = arr
    return Page(page.page_id, page.start_row, columns, page.compress)


class BufferPool:
    """A shared LRU cache of decoded pages keyed by ``(namespace, page_id)``.

    Parameters
    ----------
    storage:
        The backing page store.
    capacity_pages:
        Maximum number of pages held in memory; ``None`` means unbounded
        (an "everything fits in RAM" configuration).
    retry:
        Backoff policy for transient/corrupt read faults on a miss;
        ``None`` disables retrying (one attempt, faults propagate).
    decoded_bytes:
        Approximate byte budget of the decoded-page cache; ``0`` or
        ``None`` disables it (every miss decodes and re-verifies).
    readahead_pages:
        Default coalescing window the scan executors use when the caller
        does not pass one; ``0`` disables read-ahead.
    """

    def __init__(
        self,
        storage: Storage,
        capacity_pages: int | None = 1024,
        retry: RetryPolicy | None = RetryPolicy(),
        decoded_bytes: int | None = DEFAULT_DECODED_BYTES,
        readahead_pages: int = DEFAULT_READAHEAD_PAGES,
    ):
        if capacity_pages is not None and capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1 or None")
        if readahead_pages < 0:
            raise ValueError("readahead_pages must be >= 0")
        self.storage = storage
        self.capacity_pages = capacity_pages
        self.retry = retry if retry is not None else RetryPolicy(attempts=1)
        self.decoded_bytes = decoded_bytes if decoded_bytes else 0
        self.readahead_pages = readahead_pages
        self._cache: OrderedDict[tuple[str, int], Page] = OrderedDict()
        #: ``(namespace, page_id, checksum)`` -> ``(page, page.nbytes())``.
        self._decoded: OrderedDict[tuple[str, int, int], tuple[Page, int]] = OrderedDict()
        self._decoded_nbytes = 0
        self._lock = threading.RLock()

    @property
    def stats(self):
        """The storage backend's I/O statistics (hits/misses included)."""
        return self.storage.stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    @property
    def decoded_cache_bytes(self) -> int:
        """Approximate bytes currently held by the decoded-page cache."""
        with self._lock:
            return self._decoded_nbytes

    def get(self, namespace: str, page_id: int) -> Page:
        """Fetch a page, from cache when possible.

        The lock is held across the backing read on a miss, so two
        workers missing on the same page never both hit storage; the
        counters therefore stay exact under concurrency.  A miss is a run
        of one through the run reader, so transient and torn-page read
        faults are retried per the pool's
        :class:`~repro.db.faults.RetryPolicy` before propagating.
        """
        key = (namespace, page_id)
        with self._lock:
            page = self._cache.get(key)
            if page is not None:
                self._cache.move_to_end(key)
                self.storage.stats.add(cache_hits=1)
                return page
            return self._read_run(namespace, [page_id], coalesce=False)[0]

    def get_many(self, namespace: str, page_ids: Sequence[int]) -> PageRun:
        """Fetch a run of pages, in order, under one lock acquisition.

        Cached pages count as hits; the misses are read through the run
        reader with one coalesced storage request, and any the request
        could not deliver are read alone under the per-page retry path,
        whose faults propagate.  ``fetched`` on the result counts the
        pages the coalesced request pulled in.
        """
        with self._lock:
            pages = PageRun()
            missing: list[int] = []
            for page_id in page_ids:
                page = self._cache.get((namespace, page_id))
                if page is None:
                    missing.append(len(pages))
                pages.append(page)
            if len(missing) < len(pages):
                self.storage.stats.add(cache_hits=len(pages) - len(missing))
            if missing:
                run = self._read_run(namespace, [page_ids[i] for i in missing])
                for i, page in zip(missing, run):
                    pages[i] = page
                pages.fetched = run.fetched
            # Recency as if each page had been asked for in turn after
            # the read: the LRU order a prefetch and its gets leave.
            for page_id in page_ids:
                key = (namespace, page_id)
                if key in self._cache:
                    self._cache.move_to_end(key)
            return pages

    def prefetch(self, namespace: str, page_ids: Sequence[int]) -> int:
        """Pull the missing pages among ``page_ids`` in with one coalesced read.

        Returns how many pages were actually fetched (already-cached
        pages cost nothing).  Best effort: pages the coalesced read could
        not deliver are left for :meth:`get`, so prefetching is strictly
        an optimization.
        """
        with self._lock:
            missing = [
                page_id
                for page_id in page_ids
                if (namespace, page_id) not in self._cache
            ]
            if not missing:
                return 0
            return self._read_run(namespace, missing, fall_back=False).fetched

    def put(self, namespace: str, page: Page) -> None:
        """Write a page through to storage and cache a read-only copy.

        The cache never aliases the writer's arrays: a caller that keeps
        writing into them after ``put`` cannot change what later reads
        of the page return.
        """
        with self._lock:
            self.storage.write_page(namespace, page)
            self._admit((namespace, page.page_id), _frozen_copy(page))

    # -- internals -----------------------------------------------------------

    def _read_run(
        self,
        namespace: str,
        page_ids: list[int],
        coalesce: bool = True,
        fall_back: bool = True,
    ) -> PageRun:
        """The run reader: load ``page_ids``, none of them cached, and admit them.

        Callers hold ``self._lock``.  With ``coalesce`` the run is first
        read with one storage request, retried as a whole under the
        pool's :class:`~repro.db.faults.RetryPolicy` (counted in
        ``read_faults`` / ``read_retries`` like any other read).  A
        request that exhausts the budget delivers nothing, and a torn
        page inside a delivered request is dropped.  With ``fall_back``
        every page not delivered that way is then read alone, read and
        decode retried together, and its final fault propagates;
        otherwise it stays ``None``.  Every page read from storage counts
        one ``cache_misses``; all of the run's counters land in one
        ``stats.add``.
        """
        stats = self.storage.stats
        pages = PageRun([None] * len(page_ids))
        tally = {"checksum_verifications": 0, "decode_hits": 0, "cache_misses": 0}
        try:
            if coalesce:
                try:
                    blobs = call_with_retries(
                        lambda: self.storage.read_pages_bytes(namespace, page_ids),
                        self.retry,
                        stats=stats,
                    )
                except StorageFault:
                    blobs = ()
                for i, data in enumerate(blobs):
                    try:
                        page = self._decode(namespace, page_ids[i], data, tally)
                    except CorruptPageError:
                        continue
                    self._admit((namespace, page_ids[i]), page)
                    pages[i] = page
                    pages.fetched += 1
                tally["cache_misses"] += pages.fetched
            if fall_back:
                for i, page_id in enumerate(page_ids):
                    if pages[i] is None:
                        tally["cache_misses"] += 1
                        page = call_with_retries(
                            lambda: self._load(namespace, page_id, tally),
                            self.retry,
                            stats=stats,
                        )
                        self._admit((namespace, page_id), page)
                        pages[i] = page
        finally:
            stats.add(
                pages_prefetched=pages.fetched,
                coalesced_reads=1 if coalesce and len(page_ids) > 1 else 0,
                **tally,
            )
        return pages

    def _load(self, namespace: str, page_id: int, tally: dict) -> Page:
        data = self.storage.read_page_bytes(namespace, page_id)
        return self._decode(namespace, page_id, data, tally)

    def _decode(self, namespace: str, page_id: int, data: bytes, tally: dict) -> Page:
        """Decode encoded bytes, reusing a decoded copy when the CRC matches.

        Raises :class:`~repro.db.errors.CorruptPageError` for torn bytes
        never seen intact before.  Torn bytes whose *stored* checksum
        matches an already-verified copy are absorbed (the body bytes are
        not consulted again), which is the cache doing its job: the good
        decode of that exact page version is already in memory.  Counts
        into ``tally`` (``decode_hits`` / ``checksum_verifications``).
        """
        checksum = PageCodec.stored_checksum(data)
        if checksum is not None and self.decoded_bytes:
            dkey = (namespace, page_id, checksum)
            entry = self._decoded.get(dkey)
            if entry is not None:
                self._decoded.move_to_end(dkey)
                tally["decode_hits"] += 1
                return entry[0]
        page = PageCodec.decode(data)  # CRC verified here; may raise
        tally["checksum_verifications"] += 1
        if checksum is not None and self.decoded_bytes:
            self._remember_decoded((namespace, page_id, checksum), page)
        return page

    def _remember_decoded(self, dkey: tuple[str, int, int], page: Page) -> None:
        # Only reached on a decoded-cache miss, so ``dkey`` is new.
        nbytes = page.nbytes()
        self._decoded[dkey] = (page, nbytes)
        self._decoded_nbytes += nbytes
        while self._decoded_nbytes > self.decoded_bytes and self._decoded:
            _, (_, evicted) = self._decoded.popitem(last=False)
            self._decoded_nbytes -= evicted

    def _admit(self, key: tuple[str, int], page: Page) -> None:
        # Callers hold self._lock.
        self._cache[key] = page
        self._cache.move_to_end(key)
        if self.capacity_pages is not None:
            while len(self._cache) > self.capacity_pages:
                self._cache.popitem(last=False)

    def cached_namespaces(self) -> set[str]:
        """Namespaces with at least one page in either cache level.

        Introspection for cache-hygiene tests: after a drop or a
        generation swap, the retired namespace must not appear here.
        """
        with self._lock:
            names = {key[0] for key in self._cache}
            names.update(key[0] for key in self._decoded)
            return names

    def invalidate(self, namespace: str) -> None:
        """Drop every cached page of a namespace (both cache levels)."""
        with self._lock:
            stale = [key for key in self._cache if key[0] == namespace]
            for key in stale:
                del self._cache[key]
            stale_decoded = [key for key in self._decoded if key[0] == namespace]
            for key in stale_decoded:
                self._decoded_nbytes -= self._decoded.pop(key)[1]

    def clear(self) -> None:
        """Empty both cache levels (cold-cache / restart experiments)."""
        with self._lock:
            self._cache.clear()
            self._decoded.clear()
            self._decoded_nbytes = 0
