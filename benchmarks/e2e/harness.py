"""Set a workload up, drive its script, check the answers, derive the metrics.

Two kinds of run share the driver and the oracle check:

* :func:`run_end_to_end` -- set-up, one untimed warm-up pass over a
  different sub-seeded stream, ``gc.collect()``, the timed window with
  tracing off, then the oracle check outside the window.
* :func:`run_traced` -- the first quarter of the same stream twice, on two
  fresh set-ups so both passes start from the same state: untraced, then
  with the shims of :mod:`trace` installed; then the forced-engine
  comparison on the traced pass's system.

The machine is a shared 2-core VM whose speed dips for seconds at a time.
The timed window is therefore driven as ``SEGMENTS`` consecutive slices of
the script, every timing is computed per slice, and the run reports the
*median over slices*: a dip that covers a minority of slices does not
move the result.  For the same reason the five set-ups behind ``setup_s``
are spread over the run (one before the window, two after it, two after
the oracle check) instead of back to back.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import layer_metrics, snapshot
from oracle import ModelTable
from trace import Tracer, layer_targets
from workloads import BANDS, PlannerEnv, QueryGenerator, make_dataset, table_rows, user_bytes

__all__ = ["run_end_to_end", "run_traced"]

#: Slices of the timed window; timings are medians over them.
SEGMENTS = 8
#: Set-ups timed after the window, besides the one the window runs on;
#: ``setup_s`` is the median of all of them.
EXTRA_SETUPS = 4
#: The timed window is abandoned at the next slice boundary past this
#: multiple of ``--seconds`` (a guard for a stalled machine, not a pacer).
VALVE = 2.5

_TICK = os.sysconf("SC_CLK_TCK")


# -- process accounting ---------------------------------------------------------


def _child_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live child, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICK
    except (OSError, IndexError, ValueError):
        return 0.0


def _child_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def cpu_seconds(env) -> float:
    """CPU time of this process and the system's live worker children."""
    return time.process_time() + sum(_child_cpu_s(pid) for pid in env.worker_pids())


def peak_rss_mb(env) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_child_peak_rss_mb(pid) for pid in env.worker_pids())


# -- driving a script -------------------------------------------------------------


@dataclass
class Record:
    """One executed op: what it was, how long it took, what came back."""

    op: object
    wall_s: float = 0.0
    answer: object = None
    error: str = ""
    deleted_oids: object = None
    merged: object = None  # MergeReport when a merge ran


def _timed_query(call, op, index: int, tracer) -> Record:
    if tracer is not None:
        tracer.set_query(index)
    record = Record(op)
    start = time.perf_counter()
    try:
        record.answer = call(op.query)
    except Exception as exc:  # a failed query is a counted outcome, not a crash
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_s = time.perf_counter() - start
    return record


def _pick_live_rows(rng, seen_rows: list, count: int):
    """``count`` distinct rows out of the answers seen since the last delete."""
    if not seen_rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    row_ids = np.concatenate([r for r, _ in seen_rows])
    oids = np.concatenate([o for _, o in seen_rows])
    unique_ids, first = np.unique(row_ids, return_index=True)
    take = rng.choice(len(unique_ids), size=min(count, len(unique_ids)), replace=False)
    return unique_ids[take], oids[first[take]]


def drive(env, calls, ops, rng=None, tracer=None):
    """Run ``ops`` closed-loop; returns ``(records, wall seconds)``.

    With one client the script runs in order on this thread (and may
    write; ``rng`` picks the rows a delete removes).  With several, op
    ``i`` goes to client ``i mod n``; every client waits for its own
    reply before it sends its next query.
    """
    clock = time.perf_counter
    records: list = [None] * len(ops)
    origin = clock()

    if len(calls) > 1:

        def client_loop(slot: int) -> None:
            for index in range(slot, len(ops), len(calls)):
                records[index] = _timed_query(calls[slot], ops[index], index, tracer)

        threads = [
            threading.Thread(target=client_loop, args=(slot,), name=f"e2e-client-{slot}")
            for slot in range(len(calls))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        seen_rows: list = []  # (row ids, oids) answered since the last delete
        for index, op in enumerate(ops):
            if op.kind == "query":
                record = _timed_query(calls[0], op, index, tracer)
                if record.answer is not None:
                    seen_rows.append((record.answer.row_ids, record.answer.oids))
            else:
                record = Record(op)
                if op.kind == "delete":
                    row_ids, record.deleted_oids = _pick_live_rows(rng, seen_rows, op.count)
                    seen_rows = []
                start = clock()
                try:
                    if op.kind == "insert":
                        env.insert(op.rows)
                    elif op.kind == "delete":
                        env.delete(row_ids)
                    else:
                        record.merged = env.maybe_merge()
                except Exception as exc:
                    record.error = f"{type(exc).__name__}: {exc}"
                record.wall_s = clock() - start
            records[index] = record
    return records, clock() - origin


def check_against_oracle(records, model: ModelTable) -> int:
    """Replay the script on the model table; returns how many ops failed.

    A query fails when it raised, came back partial, or returned a row
    set other than the model's; a write fails when it raised.
    """
    failed = 0
    for record in records:
        op = record.op
        if record.error:
            failed += 1
        elif op.kind == "insert":
            model.insert(op.rows)
        elif op.kind == "delete":
            model.delete(record.deleted_oids)
        elif op.kind == "query":
            answer = record.answer
            if answer.partial or not model.matches(
                op.query.polyhedron, op.query.memberships, answer.oids
            ):
                failed += 1
    return failed


# -- shared steps ---------------------------------------------------------------------


def _set_up(workload, rows: int, scratch: Path):
    """Data + tables + indexes + workers + server; returns ``(env, data, seconds)``."""
    start = time.perf_counter()
    data = make_dataset(rows)
    env = workload.setup(data, scratch)
    return env, data, time.perf_counter() - start


def _scripts(workload, data, args):
    """``(warm-up ops, timed ops)``, each from its own child of ``--seed``."""
    warm_seed, timed_seed = np.random.SeedSequence(args.seed).spawn(2)
    warm_rng, timed_rng = np.random.default_rng(warm_seed), np.random.default_rng(timed_seed)
    return (
        workload.warm_ops(QueryGenerator(data, warm_rng), warm_rng, args.seconds, args.scale),
        workload.timed_ops(
            QueryGenerator(data, timed_rng), timed_rng, args.seconds, args.seed, args.scale
        ),
    )


def _segments(ops) -> list[list]:
    """``SEGMENTS`` consecutive slices of a script, cut at cycle ends if it writes."""
    ends = [i + 1 for i, op in enumerate(ops) if op.kind == "merge"] or list(
        range(1, len(ops) + 1)
    )
    count = min(SEGMENTS, len(ends))
    cuts = [0] + [ends[(k * len(ends)) // count - 1] for k in range(1, count + 1)]
    return [ops[a:b] for a, b in zip(cuts, cuts[1:])]


@dataclass
class Segment:
    """One slice of the window: its records, wall seconds, CPU seconds."""

    records: list
    wall_s: float
    cpu_s: float

    def timings(self) -> dict:
        """The slice's own value of each per-slice end-to-end timing."""
        latencies_ms = np.array(
            [r.wall_s for r in self.records if r.op.kind == "query" and not r.error]
        ) * 1e3
        return {
            "queries": len(latencies_ms),
            "p50_ms": float(np.percentile(latencies_ms, 50)),
            "p95_ms": float(np.percentile(latencies_ms, 95)),
            "qps": len(latencies_ms) / self.wall_s,
            "cpu_ms": self.cpu_s * 1e3 / len(latencies_ms),
        }


def _warm_and_run(env, warm_ops, segments, args, tracer=None, before_window=None):
    """Warm-up pass (untimed), then the measured slices; returns ``(segments, truncated)``."""
    calls = [env.client(i) for i in range(env.clients)]
    drive(env, calls, warm_ops)
    if before_window is not None:
        before_window()
    gc.collect()
    rng = np.random.default_rng([args.seed, 0xDE1])
    done: list[Segment] = []
    deadline = time.perf_counter() + VALVE * max(args.seconds, 1.0)
    for ops in segments:
        if time.perf_counter() > deadline:
            break
        cpu0 = cpu_seconds(env)
        records, wall = drive(env, calls, ops, rng, tracer)
        done.append(Segment(records, wall, cpu_seconds(env) - cpu0))
    return done, len(done) < len(segments)


def _details(rows: int, window: float, truncated: bool, **extra) -> dict:
    return {
        "rows": rows,
        "data_pages": -(-rows // 128),
        "window_s": window,
        "truncated": truncated,
        **extra,
    }


# -- the untraced, timed run ------------------------------------------------------------


def run_end_to_end(workload, args, scratch: Path) -> dict:
    rows = table_rows(args.scale)
    setups, loads = [], []

    def timed_set_up():
        env, data, elapsed = _set_up(workload, rows, scratch)
        setups.append(elapsed)
        loads.append(env.load_s)
        return env, data

    env, data = timed_set_up()
    try:
        warm_ops, timed_ops = _scripts(workload, data, args)
        segments, truncated = _warm_and_run(env, warm_ops, _segments(timed_ops), args)
        rss = peak_rss_mb(env)
        bytes_written = env.io()["bytes_written"] + getattr(env, "wal_bytes_appended", 0)
        stored = env.stored_bytes()
        live_rows = env.live_rows()
    finally:
        env.close()

    # Four more set-ups, only to time them, on both sides of the oracle check.
    for _ in range(EXTRA_SETUPS // 2):
        timed_set_up()[0].close()
    records = [record for segment in segments for record in segment.records]
    failed = check_against_oracle(records, ModelTable(data, BANDS))
    for _ in range(EXTRA_SETUPS // 2):
        timed_set_up()[0].close()

    inserts = [r for r in records if r.op.kind == "insert" and not r.error]
    merges = [r for r in records if r.merged is not None]
    inserted_rows = sum(len(r.op.rows["oid"]) for r in inserts)
    row_bytes = user_bytes(data) / rows
    if workload.writes:
        # The write path is insert_rows plus the foreground merges; medians
        # of the single calls, so that one slow call does not move them.
        ingest_rate = (inserted_rows / len(inserts)) / statistics.median(r.wall_s for r in inserts)
        merge_s = len(merges) * statistics.median([r.wall_s for r in merges] or [0.0])
    else:
        # A read-only workload writes once, at set-up: the bulk load is its
        # ingest, and building table + kd-tree + bitmap is the
        # reorganisation a merge would redo.  The fastest of the loads that
        # followed the first: interference only ever adds time, and the
        # first load of a run is the odd one (it creates the page files the
        # others overwrite, and pays the process's first allocations).
        merge_s = min(loads[1:])
        ingest_rate = rows / merge_s
    slices = [segment.timings() for segment in segments]
    queries = sum(one["queries"] for one in slices)

    def median_over_slices(key: str) -> float:
        return statistics.median(one[key] for one in slices)

    metrics = {
        "setup_s": statistics.median(setups),
        "query_p50_ms": median_over_slices("p50_ms"),
        "query_p95_ms": median_over_slices("p95_ms"),
        "throughput_qps": median_over_slices("qps"),
        "cpu_ms_per_query": median_over_slices("cpu_ms"),
        "peak_rss_mb": rss,
        "ingest_rows_per_s": ingest_rate,
        "merge_s": merge_s,
        "write_amp": bytes_written / (row_bytes * (rows + inserted_rows)),
        "space_amp": stored / (row_bytes * live_rows),
    }
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "details": _details(
            rows,
            sum(segment.wall_s for segment in segments),
            truncated,
            setup_samples_s=setups,
            segment_samples=slices,
            samples={
                "segments": len(segments),
                "queries": queries,
                "queries_per_segment": queries // len(segments),
                "inserts": len(inserts),
                "merges": len(merges),
                "setups": len(setups),
            },
        ),
    }


# -- the traced run ----------------------------------------------------------------------


def _compare_engines(workload, env, sample, model: ModelTable):
    """Run ``sample`` through ``auto`` and every forced engine.

    Returns ``({engine: [(wall seconds, QueryStats)]}, attempted, failed)``;
    the forced answers go through the oracle like any other.
    """
    compare: dict[str, list] = {}
    attempted = failed = 0
    for engine, call in env.engine_clients(("auto",) + workload.compare_engines):
        call(sample[0].query)  # the engine's first call pays its lazy set-up
        rows = []
        for index, op in enumerate(sample):
            record = _timed_query(call, op, index, None)
            attempted += 1
            if record.error or not model.matches(
                op.query.polyhedron, op.query.memberships, record.answer.oids
            ):
                failed += 1
            if record.answer is not None:
                rows.append((record.wall_s, record.answer.stats))
        compare[engine] = rows
    return compare, attempted, failed


def _read_amp_after_merge(env, sample, model: ModelTable, scratch: Path) -> float:
    """Pages per query after a forced merge / on a fresh build of the same rows."""

    def pages(call) -> float:
        return float(np.mean([call(op.query).stats.pages_touched for op in sample]))

    env.force_merge()
    merged = pages(env.client(0))
    fresh = PlannerEnv(
        {name: arr[model.alive] for name, arr in model.columns.items()}, scratch, on_disk=False
    )
    try:
        return merged / max(pages(fresh.client(0)), 1e-9)
    finally:
        fresh.close()


def run_traced(workload, args, scratch: Path) -> dict:
    rows = table_rows(args.scale)
    tracer = Tracer()
    env = None
    try:
        # Pass A: the quarter stream with tracing off, on its own set-up, so
        # pass B replays exactly the same ops from exactly the same state.
        env, data, _ = _set_up(workload, rows, scratch)
        warm_ops, timed_ops = _scripts(workload, data, args)
        quarter = _segments(timed_ops)[: SEGMENTS // 4]
        plain, _ = _warm_and_run(env, warm_ops, quarter, args)
        plain_window = sum(segment.wall_s for segment in plain)
        env.close()
        env = None

        env, data, _ = _set_up(workload, rows, scratch)
        before: dict = {}

        def arm() -> None:
            # After set-up (workers are already forked and stay unshimmed)
            # and after the warm-up, so only the measured pass is traced.
            before.update(snapshot(env))
            tracer.install(layer_targets())

        try:
            traced, truncated = _warm_and_run(
                env, warm_ops, quarter, args, tracer, before_window=arm
            )
        finally:
            tracer.uninstall()
        after = snapshot(env)
        records = [record for segment in traced for record in segment.records]
        traced_window = sum(segment.wall_s for segment in traced)
        model = ModelTable(data, BANDS)
        failed = check_against_oracle(records, model)

        sample = [r.op for r in records if r.op.kind == "query"][: workload.compare_queries]
        read_amp = _read_amp_after_merge(env, sample, model, scratch) if workload.writes else 0.0
        compare, compared, compare_failed = _compare_engines(workload, env, sample, model)
        metrics = layer_metrics(
            tracer, records, before, after, plain_window, traced_window, compare, read_amp
        )
    finally:
        if env is not None:
            env.close()
    if args.dump_spans:
        tracer.dump(args.dump_spans)
    failed += compare_failed
    return {
        "metrics": metrics,
        "attempted": len(records) + compared,
        "failed": failed,
        "details": _details(
            rows,
            traced_window,
            truncated,
            untraced_window_s=plain_window,
            samples={
                "queries": sum(1 for r in records if r.op.kind == "query"),
                "compared_queries": len(sample),
                "spans": len(tracer.spans),
            },
        ),
    }
