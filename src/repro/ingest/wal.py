"""The ingest write-ahead log: logical redo records for the write path.

:class:`~repro.db.recovery.LoggedStorage` logs *physical* page images;
ingest needs *logical* records (an insert batch, a delete set, merge
begin/commit fences) because delta mutations never touch a page until
the merge.  This module reuses the exact framing discipline of the
recovery seam -- magic + fixed header + CRC32 over the payload, torn
tail skipped on replay -- so the two logs share one durability story:

* every :meth:`append_insert` / :meth:`append_delete` happens *before*
  the delta tier is mutated (WAL-first); a crash between the append and
  the apply loses nothing, because replay re-applies the record;
* a merge writes ``merge_begin`` before building the new generation and
  ``merge_commit`` only after the atomic catalog swap.  Replay ignores
  an unpaired ``merge_begin`` (the torn merge never became visible) and
  skips insert/delete records at or below the last committed merge's
  sequence (the merged generation already contains them).

The log lives in memory as encoded frames, like ``LoggedStorage``'s:
the cost model counts bytes, durability of the log media is out of
scope, and tests crash/reopen by carrying the frames across databases.
"""

from __future__ import annotations

import logging
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from repro.db.errors import CorruptPageError
from repro.db.pages import Page, PageCodec

__all__ = ["IngestRecord", "IngestWal", "RecordKind"]

_WAL_MAGIC = b"RIW1"
#: Header: sequence, kind, table-name length, payload length, payload CRC32.
_HEADER = "<qiiiI"
_HEADER_SIZE = struct.calcsize(_HEADER)

logger = logging.getLogger(__name__)


class RecordKind:
    """Logical record kinds (plain ints so the header stays fixed-width)."""

    INSERT = 1
    DELETE = 2
    MERGE_BEGIN = 3
    MERGE_COMMIT = 4


@dataclass
class IngestRecord:
    """One decoded log entry: enough to redo a logical write."""

    sequence: int
    kind: int
    table: str
    payload: bytes
    checksum: int

    def verify(self) -> bool:
        """Whether the payload matches its recorded checksum."""
        return zlib.crc32(self.payload) == self.checksum

    def decode_insert(self) -> dict[str, np.ndarray]:
        """The inserted columns (INSERT records only)."""
        return PageCodec.decode(self.payload).columns

    def decode_delete(self) -> np.ndarray:
        """The deleted row ids (DELETE records only)."""
        return np.frombuffer(self.payload, dtype=np.int64).copy()


class IngestWal:
    """An append-only logical log shared by every table of a database."""

    def __init__(self, frames: list[bytes] | None = None):
        self._lock = threading.Lock()
        self._log: list[bytes] = list(frames) if frames else []
        self._sequence = 0
        for raw in self._log:
            try:
                self._sequence = max(self._sequence, self._decode(raw).sequence)
            except ValueError:
                continue

    # -- append side --------------------------------------------------------

    def _append(self, table: str, kind: int, payload: bytes) -> int:
        name_bytes = table.encode("utf-8")
        with self._lock:
            self._sequence += 1
            header = _WAL_MAGIC + struct.pack(
                _HEADER,
                self._sequence,
                kind,
                len(name_bytes),
                len(payload),
                zlib.crc32(payload),
            )
            self._log.append(header + name_bytes + payload)
            return self._sequence

    def append_insert(self, table: str, columns: dict[str, np.ndarray]) -> int:
        """Log an insert batch; returns its sequence number."""
        payload = PageCodec.encode(Page(page_id=-1, start_row=0, columns=columns))
        return self._append(table, RecordKind.INSERT, payload)

    def append_delete(self, table: str, row_ids: np.ndarray) -> int:
        """Log a delete set; returns its sequence number."""
        ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        return self._append(table, RecordKind.DELETE, ids.tobytes())

    def append_merge_begin(self, table: str, generation: int) -> int:
        """Fence: a merge toward ``generation`` is starting."""
        return self._append(
            table, RecordKind.MERGE_BEGIN, struct.pack("<q", generation)
        )

    def append_merge_commit(self, table: str, generation: int) -> int:
        """Fence: ``generation`` is now the visible layout."""
        return self._append(
            table, RecordKind.MERGE_COMMIT, struct.pack("<q", generation)
        )

    # -- read side ----------------------------------------------------------

    @staticmethod
    def _decode(raw: bytes) -> IngestRecord:
        if raw[:4] != _WAL_MAGIC:
            raise ValueError("corrupt ingest-log record magic")
        try:
            sequence, kind, name_len, payload_len, checksum = struct.unpack(
                _HEADER, raw[4: 4 + _HEADER_SIZE]
            )
            table = raw[4 + _HEADER_SIZE: 4 + _HEADER_SIZE + name_len].decode("utf-8")
        except (struct.error, UnicodeDecodeError) as exc:
            raise ValueError(f"corrupt ingest-log record header: {exc}") from exc
        start = 4 + _HEADER_SIZE + name_len
        payload = raw[start: start + payload_len]
        return IngestRecord(
            sequence=sequence,
            kind=kind,
            table=table,
            payload=payload,
            checksum=checksum,
        )

    def frames(self) -> list[bytes]:
        """The raw encoded frames (the 'durable medium' for crash tests)."""
        with self._lock:
            return list(self._log)

    def records(self) -> list[IngestRecord]:
        """Decode every record (oldest first); raises on a mangled frame."""
        return [self._decode(raw) for raw in self.frames()]

    def log_bytes(self) -> int:
        """Total bytes the log occupies."""
        with self._lock:
            return sum(len(raw) for raw in self._log)

    def truncate_table(self, table: str, upto_sequence: int) -> int:
        """Drop ``table``'s insert/delete records at or below a sequence.

        Called after a committed merge: the merged generation carries
        those rows, so the records are dead weight.  Fences are kept --
        replay needs the last ``merge_commit`` to know where to resume.
        Returns the number of frames dropped.
        """
        with self._lock:
            kept: list[bytes] = []
            dropped = 0
            for raw in self._log:
                try:
                    record = self._decode(raw)
                except ValueError:
                    kept.append(raw)
                    continue
                if (
                    record.table == table
                    and record.sequence <= upto_sequence
                    and record.kind in (RecordKind.INSERT, RecordKind.DELETE)
                ):
                    dropped += 1
                    continue
                kept.append(raw)
            self._log = kept
            return dropped

    # -- recovery -----------------------------------------------------------

    def replay(self, database, on_corrupt: str = "skip") -> int:
        """Redo unmerged logical records into a reopened database.

        For each table, finds the last committed merge fence and
        re-applies every insert/delete after it through the normal
        ingest path (without re-logging).  An unpaired ``merge_begin``
        is ignored: the catalog still maps the old generation, so the
        torn merge is simply invisible.  Returns records applied.

        ``on_corrupt`` follows :meth:`LoggedStorage.replay`: ``"skip"``
        warns and continues past a torn record, ``"raise"`` stops.
        """
        if on_corrupt not in ("skip", "raise"):
            raise ValueError("on_corrupt must be 'skip' or 'raise'")
        decoded: list[IngestRecord] = []
        for position, raw in enumerate(self.frames()):
            try:
                record = self._decode(raw)
            except ValueError as exc:
                if on_corrupt == "raise":
                    raise
                logger.warning(
                    "skipping unreadable ingest-log record %d: %s", position, exc
                )
                continue
            if not record.verify():
                message = f"ingest-log record {record.sequence} failed its checksum"
                if on_corrupt == "raise":
                    raise ValueError(message)
                logger.warning("skipping %s", message)
                continue
            decoded.append(record)
        merged_through: dict[str, int] = {}
        for record in decoded:
            if record.kind == RecordKind.MERGE_COMMIT:
                merged_through[record.table] = max(
                    merged_through.get(record.table, 0), record.sequence
                )
        applied = 0
        for record in decoded:
            if record.sequence <= merged_through.get(record.table, 0):
                continue
            if not database.has_table(record.table):
                logger.warning(
                    "ingest-log record %d names unknown table %r; skipped",
                    record.sequence,
                    record.table,
                )
                continue
            if record.kind == RecordKind.INSERT:
                try:
                    columns = record.decode_insert()
                except CorruptPageError as exc:
                    if on_corrupt == "raise":
                        raise ValueError(
                            f"ingest-log record {record.sequence} holds an "
                            "undecodable insert payload"
                        ) from exc
                    logger.warning(
                        "skipping ingest-log record %d (undecodable): %s",
                        record.sequence,
                        exc,
                    )
                    continue
                database.ingest.insert(record.table, columns, log=False)
                applied += 1
            elif record.kind == RecordKind.DELETE:
                try:
                    database.ingest.delete(
                        record.table, record.decode_delete(), log=False
                    )
                except IndexError as exc:
                    # The insert this delete targets was itself torn away.
                    if on_corrupt == "raise":
                        raise ValueError(
                            f"ingest-log record {record.sequence} deletes an "
                            "unrecovered row"
                        ) from exc
                    logger.warning(
                        "skipping ingest-log record %d (dangling delete): %s",
                        record.sequence,
                        exc,
                    )
                    continue
                applied += 1
        return applied
