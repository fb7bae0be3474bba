"""Page storage backends.

Two backends share one interface:

* :class:`MemoryStorage` keeps encoded page bytes in a dict.  Reads still
  decode bytes, so the relative cost of touching a page is non-trivial and
  the I/O counters are exact; this is the default for tests and most
  benchmarks.
* :class:`FileStorage` writes one file per page under a directory and
  reads them back through the OS, giving real disk round trips for
  experiments that want them (the out-of-core story of the paper).

Storage is deliberately dumb: no caching here.  Caching lives in
:class:`repro.db.buffer_pool.BufferPool`, so that cache hits and misses
are attributable.  Reads come in two granularities: the raw-bytes
primitives (:meth:`Storage.read_page_bytes`,
:meth:`Storage.read_pages_bytes`) return encoded blobs without decoding
-- the buffer pool owns decoding so it can skip it on a decoded-cache
hit -- and :meth:`Storage.read_page` remains the decode-included
convenience for direct callers.  ``read_pages_bytes`` is the coalescing
seam: one call fetches a batch of pages (the scan layer's read-ahead),
and a backend accounts the whole batch with a single counter update.

Failure contract (see :mod:`repro.db.errors`): a read may raise
:class:`~repro.db.errors.TransientIOError` (retryable) or
:class:`~repro.db.errors.CorruptPageError` (checksum failure; a re-read
may return a good copy); a write may raise
:class:`~repro.db.errors.WriteFault`.  ``KeyError`` stays reserved for
a page that genuinely does not exist -- it is never retried.
:class:`repro.db.faults.FaultyStorage` wraps any backend to inject these
failures deterministically.
"""

from __future__ import annotations

import abc
import os
from pathlib import Path
from typing import Sequence

from repro.db.errors import TransientIOError, WriteFault
from repro.db.pages import Page, PageCodec
from repro.db.stats import IOStats

__all__ = [
    "Storage",
    "MemoryStorage",
    "FileStorage",
    "INDEX_NAMESPACE_PREFIX",
    "index_namespace",
]

#: Namespace prefix for on-disk index pages.  Index namespaces live in
#: the same storage as data pages (so they share the buffer pool, fault
#: injection, and retry machinery) but are visibly segregated so cache
#: hygiene can target them per table generation.
INDEX_NAMESPACE_PREFIX = "__kdindex__"


def index_namespace(physical_name: str) -> str:
    """The storage namespace holding index node pages for a table.

    Keyed by *physical* name (``sky@g1``), so each merge generation gets
    its own index namespace and a generation swap can drop the retiree's
    node pages without touching the incoming tree's.
    """
    return f"{INDEX_NAMESPACE_PREFIX}/{physical_name}"


class Storage(abc.ABC):
    """Abstract page store keyed by ``(namespace, page_id)``.

    A namespace is a table name; page ids are dense per namespace.
    """

    def __init__(self) -> None:
        self.stats = IOStats()

    @abc.abstractmethod
    def write_page(self, namespace: str, page: Page) -> None:
        """Persist a page (overwrites an existing page with the same id)."""

    @abc.abstractmethod
    def read_page_bytes(self, namespace: str, page_id: int) -> bytes:
        """Load a page's encoded bytes; raises ``KeyError`` when absent."""

    def read_pages_bytes(
        self, namespace: str, page_ids: Sequence[int]
    ) -> list[bytes]:
        """Load several pages' encoded bytes in one coalesced request.

        The base implementation loops :meth:`read_page_bytes`; real
        backends override it to account the batch as one I/O operation.
        A fault on any page fails the whole batch (callers degrade to
        page-at-a-time reads with retries).
        """
        return [self.read_page_bytes(namespace, page_id) for page_id in page_ids]

    def read_page(self, namespace: str, page_id: int) -> Page:
        """Load and decode a page; raises ``KeyError`` when absent."""
        return PageCodec.decode(self.read_page_bytes(namespace, page_id))

    @abc.abstractmethod
    def num_pages(self, namespace: str) -> int:
        """Number of pages stored under a namespace."""

    @abc.abstractmethod
    def drop_namespace(self, namespace: str) -> None:
        """Remove all pages of a namespace (no-op when absent)."""


class MemoryStorage(Storage):
    """Encoded pages held in process memory with exact I/O accounting."""

    def __init__(self) -> None:
        super().__init__()
        self._pages: dict[str, dict[int, bytes]] = {}

    def write_page(self, namespace: str, page: Page) -> None:
        data = PageCodec.encode(page)
        self._pages.setdefault(namespace, {})[page.page_id] = data
        self.stats.add(page_writes=1, bytes_written=len(data))

    def read_page_bytes(self, namespace: str, page_id: int) -> bytes:
        data = self._pages[namespace][page_id]
        self.stats.add(page_reads=1, bytes_read=len(data))
        return data

    def read_pages_bytes(
        self, namespace: str, page_ids: Sequence[int]
    ) -> list[bytes]:
        store = self._pages[namespace]
        blobs = [store[page_id] for page_id in page_ids]
        self.stats.add(
            page_reads=len(blobs), bytes_read=sum(len(b) for b in blobs)
        )
        return blobs

    def num_pages(self, namespace: str) -> int:
        return len(self._pages.get(namespace, {}))

    def drop_namespace(self, namespace: str) -> None:
        self._pages.pop(namespace, None)


class FileStorage(Storage):
    """One file per page under ``root/namespace/``; real disk I/O."""

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Per-namespace directory prefix as a plain string: the read
        # path formats one file name per page and must not pay for
        # ``pathlib`` objects on each of them.
        self._prefixes: dict[str, str] = {}

    def _page_path(self, namespace: str, page_id: int) -> Path:
        return self.root / namespace / f"{page_id:08d}.page"

    def write_page(self, namespace: str, page: Page) -> None:
        path = self._page_path(namespace, page.page_id)
        data = PageCodec.encode(page)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise WriteFault(f"write of ({namespace!r}, {page.page_id}) failed: {exc}") from exc
        self.stats.add(page_writes=1, bytes_written=len(data))

    def _read_bytes(self, namespace: str, page_id: int) -> bytes:
        prefix = self._prefixes.get(namespace)
        if prefix is None:
            prefix = self._prefixes[namespace] = os.path.join(self.root, namespace, "")
        try:
            fd = os.open(f"{prefix}{page_id:08d}.page", os.O_RDONLY)
            try:
                size = os.fstat(fd).st_size
                data = os.read(fd, size)
                while len(data) < size:
                    more = os.read(fd, size - len(data))
                    if not more:
                        break
                    data += more
                return data
            finally:
                os.close(fd)
        except FileNotFoundError:
            raise KeyError((namespace, page_id)) from None
        except OSError as exc:
            # Real disk hiccups map onto the retryable fault class, so
            # the buffer pool's backoff applies to them too.
            raise TransientIOError(f"read of ({namespace!r}, {page_id}) failed: {exc}") from exc

    def read_page_bytes(self, namespace: str, page_id: int) -> bytes:
        data = self._read_bytes(namespace, page_id)
        self.stats.add(page_reads=1, bytes_read=len(data))
        return data

    def read_pages_bytes(
        self, namespace: str, page_ids: Sequence[int]
    ) -> list[bytes]:
        blobs = [self._read_bytes(namespace, page_id) for page_id in page_ids]
        self.stats.add(
            page_reads=len(blobs), bytes_read=sum(len(b) for b in blobs)
        )
        return blobs

    def num_pages(self, namespace: str) -> int:
        directory = self.root / namespace
        if not directory.is_dir():
            return 0
        return sum(1 for entry in directory.iterdir() if entry.suffix == ".page")

    def drop_namespace(self, namespace: str) -> None:
        directory = self.root / namespace
        if not directory.is_dir():
            return
        for entry in directory.iterdir():
            if entry.suffix == ".page":
                entry.unlink()
        directory.rmdir()
