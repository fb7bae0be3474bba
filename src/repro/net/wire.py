"""Length-prefixed binary framing shared by the IPC and network layers.

One frame format serves both transports -- parent <-> shard-worker
process pipes and the asyncio TCP front door -- so the protocol tests
cover them together:

.. code-block:: text

    magic    2 bytes   b"RW"
    version  1 byte    0x01
    type     1 byte    MessageType
    hdr_len  4 bytes   big-endian u32, length of the JSON header
    blob_len 4 bytes   big-endian u32, length of the binary section
    header   hdr_len bytes of UTF-8 JSON (an object)
    blob     blob_len bytes (raw column data, or empty)
    crc      4 bytes   big-endian u32, CRC32 over type..blob

Headers are JSON so every message is introspectable; bulk row data rides
in the binary section as raw column bytes (dtype-tagged in the header's
``columns`` metadata), so result pages never pay a text encoding.
Python's ``json`` emits floats via ``repr``, which round-trips IEEE-754
doubles exactly -- predicates survive the wire bit-for-bit.

One query's answer, a :class:`~repro.core.planner.PlannedQuery`, crosses
every hop (shard worker to pool, service to TCP client) through one
codec: :func:`outcome_frames` writes it as PAGE frames and a DONE, and
:func:`outcome_from_wire` reads it back.

A frame that cannot be parsed raises a structured :class:`FrameError`
(``kind`` of ``magic`` / ``version`` / ``oversized`` / ``checksum`` /
``header`` / ``truncated``) rather than a bare exception, and a stream
that ends mid-frame is distinguishable from one that ends cleanly at a
frame boundary.
"""

from __future__ import annotations

import enum
import json
import socket
import struct
import threading
import zlib
from dataclasses import dataclass, fields

import numpy as np

from repro.core.planner import PlannedQuery
from repro.db.stats import QueryStats
from repro.geometry.boxes import Box
from repro.geometry.halfspace import Polyhedron

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameError",
    "MessageType",
    "SocketChannel",
    "box_from_wire",
    "box_to_wire",
    "columns_from_blob",
    "columns_to_blob",
    "encode_frame",
    "error_from_wire",
    "error_to_wire",
    "outcome_frames",
    "outcome_from_wire",
    "polyhedron_from_wire",
    "polyhedron_to_wire",
    "read_frame_async",
    "stats_from_wire",
    "stats_to_wire",
]

MAGIC = b"RW"
VERSION = 1
_HEADER = struct.Struct(">2sBBII")
_CRC = struct.Struct(">I")

#: Upper bounds a decoder enforces before trusting a length prefix.
MAX_HEADER_BYTES = 16 << 20
MAX_BLOB_BYTES = 1 << 30


class MessageType(enum.IntEnum):
    """Frame types shared by the IPC and network protocols."""

    HELLO = 1
    QUERY = 2
    BATCH = 3
    CANCEL = 4
    PAGE = 5
    DONE = 6
    ERROR = 7
    PING = 8
    PONG = 9
    SHUTDOWN = 10
    REPORT = 11
    #: Write-path RPCs: delta-tier inserts/deletes and shard merges.
    INGEST = 12
    MERGE = 13


class FrameError(Exception):
    """A frame violated the protocol; ``kind`` says how.

    ``magic``/``version``: the stream is not speaking this protocol;
    ``oversized``: a length prefix exceeds the configured bounds (a torn
    length reads as garbage, so this doubles as corruption detection);
    ``checksum``: the payload CRC does not match (torn frame);
    ``header``: the JSON header failed to parse;
    ``truncated``: the stream ended mid-frame.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def encode_frame(
    msg_type: MessageType, header: dict | None = None, blob: bytes = b""
) -> bytes:
    """Serialize one frame."""
    header_bytes = json.dumps(
        header or {}, separators=(",", ":"), allow_nan=True
    ).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise FrameError("oversized", f"header of {len(header_bytes)} bytes")
    if len(blob) > MAX_BLOB_BYTES:
        raise FrameError("oversized", f"blob of {len(blob)} bytes")
    prefix = _HEADER.pack(
        MAGIC, VERSION, int(msg_type), len(header_bytes), len(blob)
    )
    crc = zlib.crc32(prefix[2:])
    crc = zlib.crc32(header_bytes, crc)
    crc = zlib.crc32(blob, crc)
    return prefix + header_bytes + blob + _CRC.pack(crc)


@dataclass
class Frame:
    """One decoded frame."""

    type: MessageType
    header: dict
    blob: bytes = b""


class FrameDecoder:
    """Incremental decoder: feed bytes in any chunking, pop whole frames.

    ``feed`` buffers; :meth:`pop` returns the next complete frame or
    ``None``.  :meth:`finish` must be called when the stream ends: it
    raises ``FrameError("truncated", ...)`` if bytes are left over,
    which is how a torn-off connection mid-frame is reported.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes received but not yet consumed by a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        """Append raw stream bytes."""
        self._buffer.extend(data)

    def pop(self) -> Frame | None:
        """Decode and remove the next complete frame, if any."""
        buf = self._buffer
        if len(buf) < _HEADER.size:
            return None
        magic, version, msg_type, header_len, blob_len = _HEADER.unpack_from(buf)
        if magic != MAGIC:
            raise FrameError("magic", f"expected {MAGIC!r}, got {bytes(magic)!r}")
        if version != VERSION:
            raise FrameError("version", f"unsupported frame version {version}")
        if header_len > MAX_HEADER_BYTES or blob_len > MAX_BLOB_BYTES:
            raise FrameError(
                "oversized", f"header={header_len} blob={blob_len} bytes"
            )
        total = _HEADER.size + header_len + blob_len + _CRC.size
        if len(buf) < total:
            return None
        stored = _CRC.unpack_from(buf, total - _CRC.size)[0]
        actual = zlib.crc32(memoryview(buf)[2 : total - _CRC.size])
        if stored != actual:
            raise FrameError(
                "checksum", f"crc mismatch (stored {stored:#x}, got {actual:#x})"
            )
        header_bytes = bytes(buf[_HEADER.size : _HEADER.size + header_len])
        blob = bytes(buf[_HEADER.size + header_len : total - _CRC.size])
        del buf[:total]
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FrameError("header", f"bad JSON header: {exc}") from exc
        if not isinstance(header, dict):
            raise FrameError("header", "header must be a JSON object")
        try:
            kind = MessageType(msg_type)
        except ValueError as exc:
            raise FrameError("header", f"unknown message type {msg_type}") from exc
        return Frame(type=kind, header=header, blob=blob)

    def finish(self) -> None:
        """Assert the stream ended at a frame boundary."""
        if self._buffer:
            raise FrameError(
                "truncated", f"stream ended {len(self._buffer)} bytes into a frame"
            )


class SocketChannel:
    """Blocking-socket frame channel with a serialized writer.

    One reader (thread) per channel; any number of writers (``send``
    holds a lock so interleaved frames never tear).  ``recv`` returns
    ``None`` on a clean EOF at a frame boundary and raises
    :class:`FrameError` on a mid-frame EOF or torn bytes.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._decoder = FrameDecoder()
        self._wlock = threading.Lock()
        self._closed = False

    def send(
        self, msg_type: MessageType, header: dict | None = None, blob: bytes = b""
    ) -> None:
        """Write one frame (atomic with respect to other senders)."""
        data = encode_frame(msg_type, header, blob)
        with self._wlock:
            self._sock.sendall(data)

    def recv(self) -> Frame | None:
        """Block for the next frame; ``None`` on clean EOF."""
        while True:
            frame = self._decoder.pop()
            if frame is not None:
                return frame
            try:
                data = self._sock.recv(1 << 16)
            except OSError:
                if self._closed:
                    return None
                raise
            if not data:
                self._decoder.finish()
                return None
            self._decoder.feed(data)

    def settimeout(self, timeout: float | None) -> None:
        """Set the socket timeout (``recv`` raises ``TimeoutError`` past it)."""
        self._sock.settimeout(timeout)

    def close(self) -> None:
        """Close the underlying socket (unblocks a pending ``recv``)."""
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


async def read_frame_async(reader, decoder: FrameDecoder) -> Frame | None:
    """asyncio variant of :meth:`SocketChannel.recv` over a StreamReader."""
    while True:
        frame = decoder.pop()
        if frame is not None:
            return frame
        data = await reader.read(1 << 16)
        if not data:
            decoder.finish()
            return None
        decoder.feed(data)


# -- geometry over the wire -------------------------------------------------


def polyhedron_to_wire(polyhedron: Polyhedron) -> dict:
    """JSON-safe form of a polyhedron (float64-exact via repr round-trip)."""
    return {
        "normals": polyhedron.normals.tolist(),
        "offsets": polyhedron.offsets.tolist(),
    }


def polyhedron_from_wire(wire: dict) -> Polyhedron:
    """Inverse of :func:`polyhedron_to_wire`."""
    return Polyhedron.from_inequalities(
        np.asarray(wire["normals"], dtype=np.float64),
        np.asarray(wire["offsets"], dtype=np.float64),
    )


def box_to_wire(box: Box) -> dict:
    """JSON-safe form of a box."""
    return {"lo": box.lo.tolist(), "hi": box.hi.tolist()}


def box_from_wire(wire: dict) -> Box:
    """Inverse of :func:`box_to_wire`."""
    return Box(np.asarray(wire["lo"]), np.asarray(wire["hi"]))


# -- result rows over the wire ----------------------------------------------


def columns_to_blob(rows: dict[str, np.ndarray]) -> tuple[list, bytes]:
    """Pack a column dict into (metadata, raw bytes) for a PAGE frame.

    Metadata is ``[[name, dtype_str, row_count], ...]`` in blob order;
    the blob is the concatenation of each column's C-contiguous bytes.
    """
    meta: list = []
    parts: list[bytes] = []
    for name, arr in rows.items():
        arr = np.ascontiguousarray(arr)
        meta.append([name, arr.dtype.str, int(arr.shape[0])])
        parts.append(arr.tobytes())
    return meta, b"".join(parts)


def columns_from_blob(meta: list, blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`columns_to_blob` (validates the blob length)."""
    out: dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype_str, count in meta:
        dtype = np.dtype(dtype_str)
        nbytes = dtype.itemsize * int(count)
        if offset + nbytes > len(blob):
            raise FrameError(
                "truncated",
                f"column {name!r} needs {nbytes} bytes past offset {offset}, "
                f"blob has {len(blob)}",
            )
        out[name] = np.frombuffer(
            blob, dtype=dtype, count=int(count), offset=offset
        ).copy()
        offset += nbytes
    if offset != len(blob):
        raise FrameError(
            "header", f"blob has {len(blob) - offset} unclaimed trailing bytes"
        )
    return out


# -- query stats over the wire ----------------------------------------------

_STAT_COUNTERS = (
    "rows_examined",
    "rows_returned",
    "cells_inside",
    "cells_outside",
    "cells_partial",
    "nodes_visited",
    "pages_skipped",
    "pages_prefetched",
)


def stats_to_wire(stats: QueryStats) -> dict:
    """JSON-safe form of per-query stats.

    The distinct-page *set* is compressed to per-namespace counts; the
    receiving side reconstructs synthetic page ids.  That preserves
    ``pages_touched`` and cross-shard merge additivity (shard namespaces
    are disjoint) without shipping every page id.
    """
    pages: dict[str, int] = {}
    for namespace, _ in stats._pages:
        pages[namespace] = pages.get(namespace, 0) + 1
    extra = {
        k: v
        for k, v in stats.extra.items()
        if isinstance(v, (bool, int, float, str))
    }
    wire = {name: int(getattr(stats, name)) for name in _STAT_COUNTERS}
    wire["pages"] = pages
    wire["extra"] = extra
    return wire


def stats_from_wire(wire: dict) -> QueryStats:
    """Inverse of :func:`stats_to_wire` (synthetic per-namespace page ids)."""
    stats = QueryStats(**{name: int(wire.get(name, 0)) for name in _STAT_COUNTERS})
    stats.extra.update(wire.get("extra", {}))
    for namespace, count in wire.get("pages", {}).items():
        for page_id in range(int(count)):
            stats.record_page(namespace, page_id)
    return stats


# -- one query's answer over the wire ----------------------------------------

#: The record's scalar fields, each with the type its DONE header value
#: is read back as (rows, stats and ``failed_shards`` travel apart).
_CASTS = {"bool": bool, "int": int, "float": float, "str": str}
_RECORD = tuple(
    (f.name, _CASTS[f.type]) for f in fields(PlannedQuery) if f.type in _CASTS
)


def outcome_frames(planned: PlannedQuery, page_rows: int, routing: dict):
    """Yield one answer as ``(type, header, blob)`` frames.

    PAGE frames carry ``page_rows`` rows each; the DONE header carries
    every other field of the record, and the column schema when no PAGE
    frame went out, so the receiver builds typed empty columns.  Every
    header carries the sender's ``routing`` fields.
    """
    rows = planned.rows
    names = list(rows)
    total = len(rows[names[0]]) if names else 0
    step = max(1, page_rows)
    for start in range(0, total, step):
        meta, blob = columns_to_blob({n: rows[n][start : start + step] for n in names})
        yield MessageType.PAGE, {**routing, "columns": meta}, blob
    done = {name: cast(getattr(planned, name)) for name, cast in _RECORD}
    done.update(
        routing,
        failed_shards=[int(shard) for shard in planned.failed_shards],
        stats=stats_to_wire(planned.stats),
    )
    if total == 0:
        done["columns"] = columns_to_blob({n: rows[n][:0] for n in names})[0]
    yield MessageType.DONE, done, b""


def outcome_from_wire(done: dict, pages: list[dict]) -> PlannedQuery:
    """Inverse of :func:`outcome_frames`, from the DONE header and the
    columns of the answer's PAGE frames in arrival order."""
    if not pages and "columns" in done:
        pages = [columns_from_blob(done["columns"], b"")]
    rows = {n: np.concatenate([p[n] for p in pages]) for n in pages[0]} if pages else {}
    return PlannedQuery(
        rows=rows,
        stats=stats_from_wire(done["stats"]),
        failed_shards=tuple(done["failed_shards"]),
        **{name: cast(done[name]) for name, cast in _RECORD},
    )


# -- structured errors over the wire -----------------------------------------


def error_to_wire(exc: BaseException) -> dict:
    """Classify an exception into a wire error header.

    ``kind`` drives the receiver's handling: ``deadline`` and
    ``cancelled`` map back to cooperative-cancellation types,
    ``storage_fault`` to the matching :mod:`repro.db.errors` class (so
    per-shard degradation works across the process boundary), anything
    else to a generic remote error.
    """
    from repro.db.errors import StorageFault
    from repro.service.errors import DeadlineExceeded
    from repro.shard.coordinator import ShardAborted

    if isinstance(exc, DeadlineExceeded):
        kind = "deadline"
    elif isinstance(exc, ShardAborted):
        kind = "cancelled"
    elif isinstance(exc, StorageFault):
        kind = "storage_fault"
    else:
        kind = "error"
    return {"kind": kind, "type": type(exc).__name__, "message": str(exc)}


def error_from_wire(wire: dict) -> BaseException:
    """Reconstruct the closest local exception for a wire error."""
    from repro.db import errors as db_errors
    from repro.service.errors import DeadlineExceeded
    from repro.shard.coordinator import ShardAborted

    kind = wire.get("kind", "error")
    type_name = wire.get("type", "")
    message = wire.get("message", "")
    if kind == "deadline":
        return DeadlineExceeded(message)
    if kind == "cancelled":
        return ShardAborted(message)
    if kind == "storage_fault":
        cls = getattr(db_errors, type_name, db_errors.StorageFault)
        if not (isinstance(cls, type) and issubclass(cls, db_errors.StorageFault)):
            cls = db_errors.StorageFault
        return cls(message)
    return RuntimeError(f"remote {type_name or 'error'}: {message}")
