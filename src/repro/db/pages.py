"""Pages: the unit of storage and I/O accounting.

A page is a *row group*: all columns for a contiguous range of rows of one
table.  This columnar-within-page layout matches how the engine is used
(the magnitude table is scanned column-at-a-time with numpy) while keeping
the paper's accounting unit -- "how many pages did this query touch" --
well defined.

Pages serialize to a simple self-describing binary format so the
file-backed storage does real disk round trips.  The format carries a
CRC32 of the body (the analog of SQL Server's ``PAGE_VERIFY CHECKSUM``):
a torn or corrupted payload is detected at decode time and surfaces as
:class:`repro.db.errors.CorruptPageError` instead of silently decoding
into wrong rows.

Decoding follows the paper's §3.5 lesson -- self-describing
serialisation is slow, raw binary is cheap -- without changing a stored
byte.  A table's pages all share one column layout (names, dtypes, row
counts, byte offsets), so the decoder parses that layout once per
distinct schema and keeps it in a small module-level cache keyed by
``(body length, column count)`` and bounded by a constant.  Every later
page of that shape is checked against the cached layout descriptor byte
for descriptor byte (a mismatch re-parses, so two schemas of equal body
length never share a layout), and each column becomes an
``np.frombuffer`` view over the page's one immutable ``bytes`` body: no
per-column copy, and every decoded column is **read-only**.  Cached
pages are shared by every query of the process, so nothing may write
into them; a caller that wants to modify rows copies them first.
"""

from __future__ import annotations

import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.db.errors import CorruptPageError

__all__ = ["Page", "PageCodec"]

_MAGIC = b"RPG2"
#: Pre-checksum format; still decodable (no verification possible).
_LEGACY_MAGIC = b"RPG1"
#: zlib-compressed body (index node pages).  The CRC32 covers the
#: *compressed* payload, so torn bytes are caught before decompression.
_COMPRESSED_MAGIC = b"RPGZ"

_HEADER = struct.Struct("<qqi")  # page_id, start_row, column count
_CHECKSUM = struct.Struct("<I")
_LENGTH = struct.Struct("<i")
_COUNTS = struct.Struct("<qq")  # rows, payload bytes

#: Most distinct column layouts the decoder remembers.  A database has a
#: handful (each table's full pages and short last page, the kd-tree's
#: node pages); past this many the cache simply starts over.
_LAYOUT_CACHE_SIZE = 64

#: ``(body length, column count)`` -> ``(checks, columns)``: one
#: ``(offset, descriptor bytes)`` and one ``(name, dtype, rows, data
#: offset)`` per column, offsets into the body.  A column's descriptor is
#: everything the encoder writes before its raw bytes: the name and dtype
#: with their lengths, the row count and the payload length.  Shared by
#: every thread of the process: entries are immutable, and a lost race
#: with a concurrent insert or clear only costs a re-parse.
_layouts: dict[tuple[int, int], tuple[tuple, tuple]] = {}


@dataclass
class Page:
    """One row group of a table.

    Attributes
    ----------
    page_id:
        Identifier unique within the owning table's page file.
    start_row:
        Global row offset of the first row in this page.
    columns:
        Mapping of column name to a numpy array; all arrays share length.
    """

    page_id: int
    start_row: int
    columns: dict[str, np.ndarray]
    #: Serialize with a zlib-compressed body (``RPGZ``).  Index node
    #: pages set this: their box coordinates compress well and they are
    #: read through a decoded cache, so the extra CPU is paid rarely.
    #: Round-trips through the codec (decode restores the flag).
    compress: bool = False

    @property
    def num_rows(self) -> int:
        """Number of rows in the page."""
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def end_row(self) -> int:
        """Global row offset one past the last row."""
        return self.start_row + self.num_rows

    def row_ids(self) -> np.ndarray:
        """Global row ids of the rows in this page."""
        return np.arange(self.start_row, self.end_row, dtype=np.int64)

    def slice(self, lo: int, hi: int) -> dict[str, np.ndarray]:
        """Columns restricted to local row range ``[lo, hi)``."""
        return {name: arr[lo:hi] for name, arr in self.columns.items()}

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the page payload."""
        return sum(arr.nbytes for arr in self.columns.values())


class PageCodec:
    """Binary (de)serialization of pages.

    Layout: magic, body CRC32, then the body: page_id, start_row, column
    count; per column a length-prefixed utf-8 name, a length-prefixed
    dtype string, the row count and the raw array bytes.  Object dtypes
    are rejected -- the engine stores scalars and fixed-width byte
    strings only, mirroring a real page layout (the paper's §3.5 vector
    columns use fixed-width binary, see :mod:`repro.vectype`).

    The CRC covers the whole body, so any bit flip after the header is
    caught at decode time (:class:`~repro.db.errors.CorruptPageError`).
    Legacy ``RPG1`` pages (pre-checksum) still decode, unverified.
    Pages flagged ``compress=True`` serialize as ``RPGZ``: the body is
    zlib-compressed and the CRC covers the compressed payload, so torn
    bytes surface through the same checksum path before any inflate.
    """

    @staticmethod
    def encode(page: Page) -> bytes:
        """Serialize a page to bytes (checksummed)."""
        buf = io.BytesIO()
        buf.write(struct.pack("<qqi", page.page_id, page.start_row, len(page.columns)))
        for name, arr in page.columns.items():
            if arr.dtype == object:
                raise TypeError(f"column {name!r} has object dtype; not pageable")
            arr = np.ascontiguousarray(arr)
            name_bytes = name.encode("utf-8")
            dtype_bytes = arr.dtype.str.encode("ascii")
            buf.write(struct.pack("<i", len(name_bytes)))
            buf.write(name_bytes)
            buf.write(struct.pack("<i", len(dtype_bytes)))
            buf.write(dtype_bytes)
            raw = arr.tobytes()
            buf.write(struct.pack("<qq", len(arr), len(raw)))
            buf.write(raw)
        body = buf.getvalue()
        if page.compress:
            payload = zlib.compress(body, 6)
            return _COMPRESSED_MAGIC + struct.pack("<I", zlib.crc32(payload)) + payload
        return _MAGIC + struct.pack("<I", zlib.crc32(body)) + body

    @staticmethod
    def stored_checksum(data: bytes) -> int | None:
        """The body CRC32 recorded in an encoded page, without verifying it.

        This is the decoded-page cache's key ingredient: two reads of the
        same (namespace, page_id) whose stored checksums match carry the
        same body, so a previously decoded-and-verified copy can be
        reused without re-running the CRC or the decode.  Returns
        ``None`` for legacy ``RPG1`` pages (no checksum to key on) and
        for blobs too short to carry one.
        """
        if len(data) < 8 or data[:4] not in (_MAGIC, _COMPRESSED_MAGIC):
            return None
        return _CHECKSUM.unpack_from(data, 4)[0]

    @staticmethod
    def decode(data: bytes) -> Page:
        """Deserialize bytes produced by :meth:`encode`.

        Columns are read-only views over the (verified, and for ``RPGZ``
        inflated) body.  Raises :class:`~repro.db.errors.CorruptPageError`
        on bad magic, a checksum mismatch, or a column layout that does
        not add up.
        """
        magic = data[:4]
        compressed = False
        if magic == _MAGIC:
            body = bytes(data[8:])
            if zlib.crc32(body) != _CHECKSUM.unpack_from(data, 4)[0]:
                raise CorruptPageError("corrupt page: checksum mismatch")
        elif magic == _COMPRESSED_MAGIC:
            payload = data[8:]
            if zlib.crc32(payload) != _CHECKSUM.unpack_from(data, 4)[0]:
                raise CorruptPageError("corrupt page: checksum mismatch")
            try:
                body = zlib.decompress(payload)
            except zlib.error as exc:  # pragma: no cover - CRC catches first
                raise CorruptPageError(f"corrupt page: {exc}") from exc
            compressed = True
        elif magic == _LEGACY_MAGIC:
            body = bytes(data[4:])
        else:
            raise CorruptPageError("not a page: bad magic")
        try:
            page_id, start_row, ncols = _HEADER.unpack_from(body)
            frombuffer = np.frombuffer
            columns = {
                name: frombuffer(body, dtype, rows, offset)
                for name, dtype, rows, offset in _layout(body, ncols)
            }
        except CorruptPageError:
            raise
        except (struct.error, UnicodeDecodeError, TypeError, ValueError) as exc:
            # A checksummed page cannot reach here; legacy pages can.
            raise CorruptPageError(f"corrupt page: {exc}") from exc
        return Page(
            page_id=page_id, start_row=start_row, columns=columns, compress=compressed
        )


def _layout(body: bytes, ncols: int) -> tuple[tuple, ...]:
    """``(name, dtype, rows, data offset)`` per column of ``body``.

    Served from the cache when every descriptor byte matches the cached
    layout of the same shape; parsed (and cached) otherwise.
    """
    key = (len(body), ncols)
    layout = _layouts.get(key)
    if layout is not None:
        checks, columns = layout
        for at, descriptor in checks:
            if not body.startswith(descriptor, at):
                break
        else:
            return columns
    checks, columns = layout = _parse_layout(body, ncols)
    if len(_layouts) >= _LAYOUT_CACHE_SIZE:
        _layouts.clear()
    _layouts[key] = layout
    return columns


def _parse_layout(body: bytes, ncols: int) -> tuple[tuple, tuple]:
    """Walk the column descriptors of ``body`` (the layout cache's miss path)."""
    checks, columns = [], []
    pos = _HEADER.size
    for _ in range(ncols):
        at = pos
        name, pos = _prefixed(body, pos)
        name = name.decode("utf-8")
        dtype, pos = _prefixed(body, pos)
        dtype = np.dtype(dtype.decode("ascii"))
        rows, nbytes = _COUNTS.unpack_from(body, pos)
        pos += _COUNTS.size
        if rows < 0 or dtype.hasobject or nbytes != rows * dtype.itemsize:
            raise CorruptPageError(f"corrupt page: column {name!r} row mismatch")
        checks.append((at, body[at:pos]))
        columns.append((name, dtype, rows, pos))
        pos += nbytes
    if pos != len(body):
        raise CorruptPageError("corrupt page: column layout does not end with the body")
    return tuple(checks), tuple(columns)


def _prefixed(body: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed field at ``pos``, and the offset just past it."""
    (length,) = _LENGTH.unpack_from(body, pos)
    end = pos + _LENGTH.size + length
    if length < 0 or end > len(body):
        raise CorruptPageError("corrupt page: field runs past the body")
    return body[pos + _LENGTH.size : end], end
