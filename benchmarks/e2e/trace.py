"""Timing shims around each layer's public callables.

Nothing under ``src/`` knows about this file.  For the traced pass only,
:class:`Tracer` replaces the public entry points listed in
:func:`layer_targets` with wrappers that record one span per call:

    (name, start, end, parent span id, query id, self seconds, count)

The parent comes from a per-thread stack, so a span's *self* time is its
duration minus the time its direct children cover; self times of one
thread therefore add up to the wall time of that thread's outermost
spans.  Spans stay in memory and are written out by :meth:`Tracer.dump`
when the run asks for it.  ``count`` carries a size measured at the same
boundary (bytes of an encoded frame), so ratios come from where the work
happens.

Shims are installed *after* worker processes are forked: a shard worker
is visible from here only through ``worker_stats()``'s ``busy_s``.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from typing import NamedTuple

__all__ = ["Span", "Tracer", "layer_targets"]


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int  # 0 = outermost span of its thread
    parent_name: str
    query_id: int  # -1 = not inside a client call of this thread
    self_s: float
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs shims, collects spans, aggregates them by name."""

    def __init__(self) -> None:
        # Raw tuples in Span field order: the shim's hot path appends
        # these, readers go through the ``spans`` property.
        self._raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[Span]:
        """Every recorded span, in completion order."""
        return [Span._make(raw) for raw in self._raw]

    # -- per-thread context ---------------------------------------------------

    def set_query(self, query_id: int) -> None:
        """Tag the spans this thread records next with ``query_id``."""
        self._local.query_id = query_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, func, count=None):
        """``func`` with a span recorded around every call.

        ``count(result)`` (optional) measures the call's output size.
        """
        record = self._raw.append
        ids = self._ids
        local = self._local
        get_stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            stack = get_stack()
            span_id = next(ids)
            # frame: [span id, name, seconds covered by direct children]
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    parent_id, parent_name = parent[0], parent[1]
                else:
                    parent_id, parent_name = 0, ""
                record(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent_id,
                        parent_name,
                        getattr(local, "query_id", -1),
                        duration - frame[2],
                        count(result) if count is not None and result is not None else 0,
                    )
                )

        shim.__wrapped__ = func
        shim.__name__ = getattr(func, "__name__", name)
        return shim

    def install(self, targets) -> None:
        """Replace every ``(owner, attribute, span name[, count])`` target.

        A module-level function is also replaced in every loaded
        ``repro`` module that imported it by name, because callers hold
        their own reference.
        """
        for target in targets:
            owner, attr, name = target[:3]
            count = target[3] if len(target) > 3 else None
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            shim = self.wrap(name, original, count)
            if isinstance(owner, type):
                self._set(owner, attr, staticmethod(shim) if is_static else shim, raw)
                continue
            for module in list(sys.modules.values()):
                if module is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, shim, original)

    def _set(self, owner, attr: str, value, original) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced callable back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed count."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_s
            row["count"] += span.count
        return out

    def total_under(self, name: str, parent_prefix: str) -> float:
        """Seconds of ``name`` spans whose direct parent starts with a prefix."""
        return sum(
            span.duration
            for span in self.spans
            if span.name == name and span.parent_name.startswith(parent_prefix)
        )

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent_id,
                            "query": s.query_id,
                            "self_s": s.self_s,
                            "count": s.count,
                        }
                    )
                    + "\n"
                )


def layer_targets() -> list[tuple]:
    """Every public callable the traced pass times, with its span name.

    Span names are ``<layer>.<call>``; the layer prefix is what the
    per-layer metrics sum over.  A renamed or removed callable raises
    ``KeyError``/``AttributeError`` here, which is how the smoke test
    notices an API change before a performance change does.
    """
    from repro.bitmap import executor as bitmap_executor
    from repro.bitmap.index import BitmapIndex
    from repro.core import batch as core_batch
    from repro.core.kdpaged import PagedKdTree
    from repro.core.kdtree import KdTreeIndex
    from repro.core.planner import QueryPlanner
    from repro.db import scan as db_scan
    from repro.db.buffer_pool import BufferPool
    from repro.db.pages import PageCodec
    from repro.db.storage import FileStorage, MemoryStorage
    from repro.db.zonemap import ZoneMap
    from repro.geometry.halfspace import Polyhedron
    from repro.ingest import merge as ingest_merge
    from repro.ingest.delta import DeltaSnapshot, DeltaTier
    from repro.ingest.manager import IngestManager
    from repro.ingest.wal import IngestWal
    from repro.net import wire
    from repro.net.client import QueryClient
    from repro.net.pool import ShardWorkerPool
    from repro.service import result_cache
    from repro.service.executor import QueryService
    from repro.service.metrics import MetricsRegistry
    from repro.service.result_cache import ResultCache

    targets: list[tuple] = []
    for storage in (MemoryStorage, FileStorage):
        targets += [
            (storage, "read_page_bytes", "storage.read"),
            (storage, "read_pages_bytes", "storage.read"),
            (storage, "write_page", "storage.write"),
        ]
    targets += [
        (PageCodec, "decode", "pages.decode"),
        (PageCodec, "encode", "pages.encode"),
        (BufferPool, "get", "pool.get"),
        (BufferPool, "prefetch", "pool.prefetch"),
        (BufferPool, "put", "pool.put"),
        (db_scan, "full_scan", "scan.full"),
        (db_scan, "range_scan", "scan.range"),
        (db_scan, "batch_full_scan", "scan.batch"),
        (ZoneMap, "pruner", "scan.zone_pruner"),
        (QueryPlanner, "execute", "planner.execute"),
        (QueryPlanner, "execute_batch", "planner.execute"),
        (KdTreeIndex, "query_polyhedron", "kd.query"),
        (KdTreeIndex, "candidate_ranges", "kd.candidate_ranges"),
        (core_batch, "batch_kd_query", "kd.query"),
        (PagedKdTree, "visit_info", "kd.visit_info"),
        (Polyhedron, "classify_box", "geometry.classify_box"),
        (BitmapIndex, "candidate_bitmap", "bitmap.candidate"),
        (bitmap_executor, "batch_bitmap_query", "bitmap.fetch"),
        (bitmap_executor, "hybrid_query", "bitmap.hybrid"),
        (bitmap_executor, "batch_hybrid_query", "bitmap.hybrid"),
        (IngestManager, "insert", "ingest.insert"),
        (IngestManager, "delete", "ingest.delete"),
        (ingest_merge, "merge_table", "ingest.merge"),
        (IngestWal, "append_insert", "ingest.wal_append"),
        (IngestWal, "append_delete", "ingest.wal_append"),
        (DeltaTier, "insert", "ingest.delta_insert"),
        (DeltaTier, "delete", "ingest.delta_delete"),
        (DeltaTier, "snapshot", "ingest.delta_snapshot"),
        (DeltaSnapshot, "match", "ingest.delta_match"),
        (QueryService, "submit", "service.submit"),
        (ResultCache, "get", "service.cache_get"),
        (ResultCache, "put", "service.cache_put"),
        (result_cache, "query_fingerprint", "service.fingerprint"),
        (MetricsRegistry, "record", "service.metrics_record"),
        (ShardWorkerPool, "execute", "shard.execute"),
        (ShardWorkerPool, "execute_batch", "shard.execute"),
        (QueryClient, "query", "net.client_query"),
        (wire.SocketChannel, "recv", "net.recv_wait"),
        (wire.SocketChannel, "send", "net.send"),
        (wire, "encode_frame", "net.wire_encode", len),
        (wire, "columns_to_blob", "net.wire_encode"),
        (wire, "polyhedron_to_wire", "net.wire_encode"),
        (wire, "stats_to_wire", "net.wire_encode"),
        (wire.FrameDecoder, "pop", "net.wire_decode"),
        (wire, "columns_from_blob", "net.wire_decode"),
        (wire, "polyhedron_from_wire", "net.wire_decode"),
        (wire, "stats_from_wire", "net.wire_decode"),
    ]
    return targets
