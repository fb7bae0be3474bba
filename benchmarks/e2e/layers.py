"""Per-layer metrics: spans and public counters folded into named numbers.

Two sources, both read from outside the program:

* the spans :mod:`trace` recorded around each layer's public callables
  during the traced pass (times, call counts, encoded bytes);
* the counters every layer already publishes -- ``IOStats``,
  ``QueryStats`` on each answer, ``service.report()``,
  ``engine.counters()``, ``worker_stats()`` -- taken before and after the
  traced pass and subtracted.

A layer that is not on a workload's path reports 0 for its metrics; that
is a result (the prediction "no effect here" is checkable), not a gap.
Times are per traced query unless the name says otherwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["snapshot", "layer_metrics"]

_ENGINE_NAMES = {"kd": "kdtree", "scan": "scan", "bitmap": "bitmap", "hybrid": "hybrid"}


def snapshot(env) -> dict:
    """Every public counter of the system under test, as plain numbers."""
    snap = {
        "io": env.io(),
        "wal_bytes": getattr(env, "wal_bytes_appended", 0),
        "workers": {},
        "service": {},
        "queue_wait_s": [],
    }
    service = getattr(env, "service", None)
    if service is not None:
        report = service.report()
        snap["service"] = {
            "cache_hits": report["cache"]["hits"],
            "cache_misses": report["cache"]["misses"],
            "rejected": report["admission"]["rejected"],
            "batches": report["service"]["batches"],
            "batch_members": report["service"]["batch_members"],
            "shards_dispatched": report["engine"]["shards_dispatched"],
            "shards_pruned": report["engine"]["shards_pruned"],
        }
        snap["queue_wait_s"] = [q.queue_wait_s for q in service.metrics.per_query()]
        snap["workers"] = {w["shard_id"]: w["busy_s"] for w in env.pool.worker_stats()}
    return snap


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(
    tracer, records, before, after, plain_window, traced_window, compare, read_amp
) -> dict:
    """The per-layer metrics of ``BENCHMARK.json`` for one traced pass.

    ``compare`` maps engine name (``auto`` and the forced ones) to the
    per-query ``(wall seconds, QueryStats)`` of the engine comparison;
    ``read_amp`` is pages per query after a forced merge over pages per
    query on a fresh build of the same rows (0 when the workload never
    writes).
    """
    totals = tracer.totals()
    queries = [r for r in records if r.op.kind == "query" and r.answer is not None]
    n = max(len(queries), 1)
    stats = [r.answer.stats for r in queries]
    io = {k: after["io"][k] - before["io"].get(k, 0) for k in after["io"]}

    def self_ms(*prefixes: str) -> float:
        seconds = sum(
            row["self_s"] for name, row in totals.items() if name.startswith(prefixes)
        )
        return seconds * 1e3 / n

    def total_ms(name: str, per: float = n) -> float:
        return totals.get(name, {"total_s": 0.0})["total_s"] * 1e3 / max(per, 1)

    def calls(name: str) -> int:
        return totals.get(name, {"calls": 0})["calls"]

    m: dict[str, float] = {}

    # service ------------------------------------------------------------------
    sv = {k: after["service"].get(k, 0) - before["service"].get(k, 0) for k in after["service"]}
    waits = after["queue_wait_s"][len(before["queue_wait_s"]):]
    m["service.queue_wait_ms"] = float(np.mean(waits)) * 1e3 if waits else 0.0
    m["service.self_ms"] = self_ms("service.")
    m["service.result_cache_hit_rate"] = _ratio(
        sv.get("cache_hits", 0), sv.get("cache_hits", 0) + sv.get("cache_misses", 0)
    )
    m["service.batch_occupancy"] = _ratio(sv.get("batch_members", 0), sv.get("batches", 0))
    m["service.admission_rejects"] = float(sv.get("rejected", 0))

    # net ----------------------------------------------------------------------
    busy = [after["workers"][w] - before["workers"].get(w, 0.0) for w in after["workers"]]
    rows_returned = sum(len(r.answer.oids) for r in queries)
    m["net.wire_encode_ms"] = self_ms("net.wire_encode")
    m["net.wire_decode_ms"] = self_ms("net.wire_decode")
    m["net.client_self_ms"] = self_ms("net.client_query")
    m["net.bytes_per_row"] = _ratio(
        totals.get("net.wire_encode", {"count": 0})["count"], rows_returned
    )
    m["net.ipc_ms"] = (
        (totals["shard.execute"]["total_s"] - max(busy)) * 1e3 / n
        if busy and "shard.execute" in totals
        else 0.0
    )

    # shard --------------------------------------------------------------------
    m["shard.route_ms"] = tracer.total_under("geometry.classify_box", "shard.") * 1e3 / n
    m["shard.execute_self_ms"] = self_ms("shard.execute")
    m["shard.shards_pruned_frac"] = _ratio(
        sv.get("shards_pruned", 0), sv.get("shards_pruned", 0) + sv.get("shards_dispatched", 0)
    )
    m["shard.worker_busy_skew"] = _ratio(max(busy), np.mean(busy)) if busy else 0.0

    # planner ------------------------------------------------------------------
    m["planner.execute_self_ms"] = self_ms("planner.execute")
    paths: dict[str, float] = {}
    for answer_stats, record in zip(stats, queries):
        sharded = {
            key[len("shard_path_"):]: value
            for key, value in answer_stats.extra.items()
            if key.startswith("shard_path_")
        }
        for path, weight in (sharded or {record.answer.chosen_path: 1}).items():
            paths[path] = paths.get(path, 0) + weight
    executed = sum(paths.get(name, 0) for name in _ENGINE_NAMES.values())
    for short, name in _ENGINE_NAMES.items():
        m[f"planner.engine_share.{short}"] = _ratio(paths.get(name, 0), executed)
    sel_errors = [
        abs(r.answer.estimated_selectivity - r.answer.actual_selectivity)
        for r in queries
        if np.isfinite(r.answer.estimated_selectivity) and np.isfinite(r.answer.actual_selectivity)
    ]
    m["planner.selectivity_err"] = float(np.mean(sel_errors)) if sel_errors else 0.0
    page_errors = [
        abs(s.extra[f"cost_{r.answer.chosen_path}"] - s.pages_touched) / max(s.pages_touched, 1)
        for s, r in zip(stats, queries)
        if f"cost_{r.answer.chosen_path}" in s.extra
    ]
    m["planner.pages_pred_err"] = float(np.mean(page_errors)) if page_errors else 0.0
    forced = {e: rows for e, rows in compare.items() if e != "auto"}
    best = np.min([[wall for wall, _ in rows] for rows in forced.values()], axis=0)
    m["planner.auto_vs_best_ratio"] = _ratio(
        sum(wall for wall, _ in compare["auto"]), float(best.sum())
    )

    def forced_ms(engine: str) -> float:
        rows = compare.get(engine)
        return float(np.mean([wall for wall, _ in rows])) * 1e3 if rows else 0.0

    # kd -----------------------------------------------------------------------
    m["kd.traverse_ms"] = (
        self_ms("kd.") + tracer.total_under("geometry.classify_box", "kd.") * 1e3 / n
    )
    m["kd.query_ms"] = forced_ms("kd")
    m["kd.nodes_visited"] = float(np.mean([s.nodes_visited for s in stats])) if stats else 0.0
    cells = sum(s.cells_inside + s.cells_partial + s.cells_outside for s in stats)
    m["kd.cells_partial_frac"] = _ratio(sum(s.cells_partial for s in stats), cells)
    m["kd.node_cache_hit_rate"] = _ratio(
        io["node_cache_hits"], io["node_cache_hits"] + io["node_cache_misses"]
    )
    m["kd.index_pages_decoded"] = io["index_pages_decoded"] / n

    # bitmap -------------------------------------------------------------------
    m["bitmap.candidate_ms"] = total_ms("bitmap.candidate")
    m["bitmap.query_ms"] = forced_ms("bitmap")
    m["bitmap.candidate_pages"] = (
        float(np.mean([s.pages_touched for _, s in compare["bitmap"]]))
        if "bitmap" in compare
        else 0.0
    )

    # scan / zone maps -----------------------------------------------------------
    m["scan.query_ms"] = forced_ms("scan")
    scan_stats = [s for _, s in compare.get("scan", [])]
    skipped = sum(s.pages_skipped for s in scan_stats)
    m["scan.pages_skipped_frac"] = _ratio(
        skipped, skipped + sum(s.pages_touched for s in scan_stats)
    )
    m["scan.filter_efficiency"] = _ratio(
        sum(s.rows_returned for s in stats), sum(s.rows_examined for s in stats)
    )
    m["pages_per_query"] = float(np.mean([s.pages_touched for s in stats])) if stats else 0.0

    # buffer pool / pages / storage ----------------------------------------------
    m["pool.get_self_ms"] = self_ms("pool.")
    m["pool.hit_rate"] = _ratio(io["cache_hits"], io["cache_hits"] + io["cache_misses"])
    m["pool.decode_hit_rate"] = _ratio(
        io["decode_hits"], io["decode_hits"] + io["checksum_verifications"]
    )
    m["pages.decode_ms"] = total_ms("pages.decode")
    m["pages.decoded_per_query"] = io["checksum_verifications"] / n
    m["storage.read_ms"] = total_ms("storage.read")
    m["storage.bytes_read_per_query"] = io["bytes_read"] / n
    m["storage.coalesced_read_share"] = _ratio(io["pages_prefetched"], io["page_reads"])

    # ingest -------------------------------------------------------------------
    inserts = [r for r in records if r.op.kind == "insert" and not r.error]
    merges = [r.merged for r in records if r.merged is not None]
    inserted_rows = sum(len(r.op.rows["oid"]) for r in inserts)
    m["ingest.insert_call_ms"] = total_ms("ingest.insert", calls("ingest.insert"))
    m["ingest.wal_append_ms"] = total_ms("ingest.wal_append", calls("ingest.wal_append"))
    m["ingest.delta_insert_ms"] = total_ms("ingest.delta_insert", calls("ingest.delta_insert"))
    m["ingest.delta_match_ms"] = total_ms("ingest.delta_match") + total_ms("ingest.delta_snapshot")
    m["ingest.merge_ms"] = total_ms("ingest.merge", calls("ingest.merge"))
    m["ingest.merge_rows_rewritten"] = (
        float(np.mean([report.rows_after for report in merges])) if merges else 0.0
    )
    m["ingest.wal_bytes_per_row"] = _ratio(after["wal_bytes"] - before["wal_bytes"], inserted_rows)
    m["ingest.read_amp_post_merge"] = read_amp

    # the trace itself -----------------------------------------------------------
    m["trace.overhead_frac"] = traced_window / plain_window - 1.0
    # Blocking reads of a socket are waiting, not work of the layer that waits.
    worked = sum(row["self_s"] for name, row in totals.items() if name != "net.recv_wait")
    m["trace.coverage_frac"] = _ratio(worked, sum(r.wall_s for r in records))
    return m
