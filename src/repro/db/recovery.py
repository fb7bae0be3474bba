"""Write-ahead logging, and why the paper turned it off.

The paper's working environment: "recovery mode was set to simple in
order to avoid huge / slow log processes" (§3).  Bulk-building spatial
indexes writes every page once; full recovery logging doubles the bytes
written (page image + log record) for no benefit on a static,
rebuildable database.  This module makes that a measurable choice:

* :class:`LoggedStorage` wraps any storage backend and appends a log
  record per page write -- the "full" recovery model;
* ``recovery="simple"`` (the default everywhere else) is the paper's
  configuration: no log, half the write traffic.

Both write-ahead logs of the codebase -- this physical one and the
logical ingest log (:class:`~repro.ingest.wal.IngestWal`) -- are one
:class:`RecordLog`: one frame format (magic + fixed header + CRC32 over
the payload), one running byte count, and one torn-record reader that
either warns and skips or raises.

The E-extension bench builds the same index under both models and
reports the write amplification.
"""

from __future__ import annotations

import logging
import struct
import threading
import zlib
from dataclasses import dataclass

from repro.db.errors import CorruptPageError
from repro.db.pages import Page, PageCodec
from repro.db.storage import Storage

__all__ = ["LoggedStorage", "LogRecord", "RecordLog", "refuse_record"]

_LOG_MAGIC = b"RIW1"
#: Header: sequence, kind, name length, payload length, payload CRC32.
_HEADER = "<qiiiI"
_HEADER_END = 4 + struct.calcsize(_HEADER)

#: The record kind of a physical page image (ingest kinds are 1-4).
PAGE = 0

logger = logging.getLogger(__name__)


@dataclass
class LogRecord:
    """One decoded log entry: enough to redo a page or logical write."""

    sequence: int
    kind: int
    name: str
    payload: bytes
    checksum: int

    def verify(self) -> bool:
        """Whether the payload matches its recorded checksum."""
        return zlib.crc32(self.payload) == self.checksum

    def decode_page(self) -> Page:
        """The page the payload encodes (PAGE and insert records)."""
        return PageCodec.decode(self.payload)


def refuse_record(on_corrupt: str, message: str, cause: Exception | None = None):
    """Raise ``ValueError(message)`` in strict mode, else warn (caller skips)."""
    if on_corrupt == "raise":
        raise ValueError(message) from cause
    logger.warning("skipping %s", message)


class RecordLog:
    """An append-only log of CRC-framed records, kept in memory.

    The log holds encoded frames (the cost model counts their bytes;
    durability of the log media is out of scope).  Passing the frames
    of a crashed log reopens it: numbering continues past the highest
    readable sequence.
    """

    def __init__(self, frames: list[bytes] | None = None):
        self._lock = threading.Lock()
        self._log: list[bytes] = list(frames) if frames else []
        self._bytes = sum(len(raw) for raw in self._log)
        self._sequence = 0
        for raw in self._log:
            try:
                self._sequence = max(self._sequence, self._decode(raw).sequence)
            except ValueError:
                continue

    def append(self, kind: int, name: str, payload: bytes) -> int:
        """Frame and append one record; returns its sequence number."""
        name_bytes = name.encode("utf-8")
        with self._lock:
            self._sequence += 1
            frame = (
                _LOG_MAGIC
                + struct.pack(
                    _HEADER,
                    self._sequence,
                    kind,
                    len(name_bytes),
                    len(payload),
                    zlib.crc32(payload),
                )
                + name_bytes
                + payload
            )
            self._log.append(frame)
            self._bytes += len(frame)
            return self._sequence

    @staticmethod
    def _decode(raw: bytes) -> LogRecord:
        """Decode one frame; raises ``ValueError`` when it is mangled."""
        if raw[:4] != _LOG_MAGIC:
            raise ValueError("corrupt log record magic")
        try:
            sequence, kind, name_len, payload_len, checksum = struct.unpack(
                _HEADER, raw[4:_HEADER_END]
            )
            name = raw[_HEADER_END: _HEADER_END + name_len].decode("utf-8")
        except (struct.error, UnicodeDecodeError) as exc:
            raise ValueError(f"corrupt log record header: {exc}") from exc
        start = _HEADER_END + name_len
        return LogRecord(
            sequence=sequence,
            kind=kind,
            name=name,
            payload=raw[start: start + payload_len],
            checksum=checksum,
        )

    def frames(self) -> list[bytes]:
        """The raw encoded frames (the 'durable medium' for crash tests)."""
        with self._lock:
            return list(self._log)

    def records(self) -> list[LogRecord]:
        """Decode every record (oldest first); raises on a mangled frame."""
        return [self._decode(raw) for raw in self.frames()]

    def log_bytes(self) -> int:
        """Total bytes the log occupies -- the 'huge / slow log' cost."""
        return self._bytes

    def verified(self, on_corrupt: str = "skip") -> list[LogRecord]:
        """Every record whose magic, header and checksum hold (oldest first).

        A torn record is never handed back.  What happens to it depends
        on ``on_corrupt``:

        * ``"skip"`` (default) -- log a warning and continue with the
          remaining records, the way a real redo pass survives a torn
          tail write;
        * ``"raise"`` -- stop with ``ValueError`` at the first bad
          record (strict mode for integrity audits).
        """
        if on_corrupt not in ("skip", "raise"):
            raise ValueError("on_corrupt must be 'skip' or 'raise'")
        records: list[LogRecord] = []
        for position, raw in enumerate(self.frames()):
            try:
                record = self._decode(raw)
            except ValueError as exc:
                refuse_record(
                    on_corrupt, f"unreadable log record {position}: {exc}", exc
                )
                continue
            if not record.verify():
                refuse_record(
                    on_corrupt, f"log record {record.sequence} failed its checksum"
                )
                continue
            records.append(record)
        return records


class LoggedStorage(Storage):
    """Full-recovery storage: every page write also appends a log record.

    :meth:`replay` can rebuild a fresh storage backend from the log
    alone -- the property full recovery buys.
    """

    def __init__(self, inner: Storage):
        super().__init__()
        self.inner = inner
        self.log = RecordLog()

    # -- storage interface -------------------------------------------------------

    def write_page(self, namespace: str, page: Page) -> None:
        self.log.append(PAGE, namespace, PageCodec.encode(page))
        self.inner.write_page(namespace, page)
        # Mirror the inner backend's counters plus the log's.
        self.stats.page_writes = self.inner.stats.page_writes
        self.stats.bytes_written = self.inner.stats.bytes_written + self.log.log_bytes()

    def read_page_bytes(self, namespace: str, page_id: int) -> bytes:
        data = self.inner.read_page_bytes(namespace, page_id)
        self.stats.page_reads = self.inner.stats.page_reads
        self.stats.bytes_read = self.inner.stats.bytes_read
        return data

    def read_pages_bytes(self, namespace: str, page_ids) -> list[bytes]:
        blobs = self.inner.read_pages_bytes(namespace, page_ids)
        self.stats.page_reads = self.inner.stats.page_reads
        self.stats.bytes_read = self.inner.stats.bytes_read
        return blobs

    def num_pages(self, namespace: str) -> int:
        return self.inner.num_pages(namespace)

    def drop_namespace(self, namespace: str) -> None:
        self.inner.drop_namespace(namespace)

    # -- recovery ------------------------------------------------------------------

    def replay(self, target: Storage, on_corrupt: str = "skip") -> int:
        """Redo the log into an empty storage; returns records applied.

        Torn records follow :meth:`RecordLog.verified`.  A record whose
        page decodes wrong despite a matching checksum (possible for
        pre-checksum page formats) is treated the same way.
        """
        applied = 0
        for record in self.log.verified(on_corrupt):
            try:
                page = record.decode_page()
            except CorruptPageError as exc:
                refuse_record(
                    on_corrupt,
                    f"log record {record.sequence} holds an undecodable page",
                    exc,
                )
                continue
            target.write_page(record.name, page)
            applied += 1
        return applied
