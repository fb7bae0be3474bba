"""The ingest write-ahead log: logical redo records for the write path.

:class:`~repro.db.recovery.LoggedStorage` logs *physical* page images;
ingest needs *logical* records (an insert batch, a delete set, merge
begin/commit fences) because delta mutations never touch a page until
the merge.  The two logs are one :class:`~repro.db.recovery.RecordLog`
-- one frame format (magic + fixed header + CRC32 over the payload),
one running byte count, one torn-record reader -- and this module adds
only the logical layer on top:

* every :meth:`append_insert` / :meth:`append_delete` happens *before*
  the delta tier is mutated (WAL-first); a crash between the append and
  the apply loses nothing, because replay re-applies the record;
* a merge writes ``merge_begin`` before building the new generation and
  ``merge_commit`` only after the atomic catalog swap.  Replay ignores
  an unpaired ``merge_begin`` (the torn merge never became visible) and
  skips insert/delete records at or below the last committed merge's
  sequence (the merged generation already contains them).

Like ``LoggedStorage``'s, the log lives in memory as encoded frames:
the cost model counts bytes, durability of the log media is out of
scope, and tests crash/reopen by carrying the frames across databases.
"""

from __future__ import annotations

import logging
import struct

import numpy as np

from repro.db.errors import CorruptPageError
from repro.db.pages import Page, PageCodec
from repro.db.recovery import RecordLog, refuse_record

__all__ = ["IngestWal", "RecordKind"]

logger = logging.getLogger(__name__)


class RecordKind:
    """Logical record kinds (plain ints so the header stays fixed-width)."""

    INSERT = 1
    DELETE = 2
    MERGE_BEGIN = 3
    MERGE_COMMIT = 4


class IngestWal(RecordLog):
    """An append-only logical log shared by every table of a database."""

    # -- append side --------------------------------------------------------

    def append_insert(self, table: str, columns: dict[str, np.ndarray]) -> int:
        """Log an insert batch; returns its sequence number."""
        payload = PageCodec.encode(Page(page_id=-1, start_row=0, columns=columns))
        return self.append(RecordKind.INSERT, table, payload)

    def append_delete(self, table: str, row_ids: np.ndarray) -> int:
        """Log a delete set; returns its sequence number."""
        ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        return self.append(RecordKind.DELETE, table, ids.tobytes())

    def append_merge_begin(self, table: str, generation: int) -> int:
        """Fence: a merge toward ``generation`` is starting."""
        return self.append(
            RecordKind.MERGE_BEGIN, table, struct.pack("<q", generation)
        )

    def append_merge_commit(self, table: str, generation: int) -> int:
        """Fence: ``generation`` is now the visible layout."""
        return self.append(
            RecordKind.MERGE_COMMIT, table, struct.pack("<q", generation)
        )

    def truncate_table(self, table: str, upto_sequence: int) -> int:
        """Drop ``table``'s insert/delete records at or below a sequence.

        Called after a committed merge: the merged generation carries
        those rows, so the records are dead weight.  Fences are kept --
        replay needs the last ``merge_commit`` to know where to resume.
        Returns the number of frames dropped.
        """
        with self._lock:
            kept: list[bytes] = []
            for raw in self._log:
                try:
                    record = self._decode(raw)
                except ValueError:
                    kept.append(raw)
                    continue
                if not (
                    record.name == table
                    and record.sequence <= upto_sequence
                    and record.kind in (RecordKind.INSERT, RecordKind.DELETE)
                ):
                    kept.append(raw)
            dropped = len(self._log) - len(kept)
            self._log = kept
            self._bytes = sum(len(raw) for raw in kept)
            return dropped

    # -- recovery -----------------------------------------------------------

    def replay(self, database, on_corrupt: str = "skip") -> int:
        """Redo unmerged logical records into a reopened database.

        For each table, finds the last committed merge fence and
        re-applies every insert/delete after it through the normal
        ingest path (without re-logging).  An unpaired ``merge_begin``
        is ignored: the catalog still maps the old generation, so the
        torn merge is simply invisible.  Returns records applied.

        ``on_corrupt`` follows :meth:`RecordLog.verified`: ``"skip"``
        warns and continues past a torn record, ``"raise"`` stops.
        """
        decoded = self.verified(on_corrupt)
        merged_through: dict[str, int] = {}
        for record in decoded:
            if record.kind == RecordKind.MERGE_COMMIT:
                merged_through[record.name] = max(
                    merged_through.get(record.name, 0), record.sequence
                )
        applied = 0
        for record in decoded:
            if record.sequence <= merged_through.get(record.name, 0):
                continue
            if not database.has_table(record.name):
                logger.warning(
                    "ingest-log record %d names unknown table %r; skipped",
                    record.sequence,
                    record.name,
                )
                continue
            if record.kind == RecordKind.INSERT:
                try:
                    columns = record.decode_page().columns
                except CorruptPageError as exc:
                    refuse_record(
                        on_corrupt,
                        f"log record {record.sequence} holds an "
                        f"undecodable insert payload: {exc}",
                        exc,
                    )
                    continue
                database.ingest.insert(record.name, columns, log=False)
                applied += 1
            elif record.kind == RecordKind.DELETE:
                row_ids = np.frombuffer(record.payload, dtype=np.int64).copy()
                try:
                    database.ingest.delete(record.name, row_ids, log=False)
                except IndexError as exc:
                    # The insert this delete targets was itself torn away.
                    refuse_record(
                        on_corrupt,
                        f"log record {record.sequence} deletes an unrecovered "
                        f"row (dangling delete): {exc}",
                        exc,
                    )
                    continue
                applied += 1
        return applied
