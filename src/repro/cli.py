"""Command-line interface: ``python -m repro <command>``.

Small utilities for poking at the system without writing a script:

* ``demo`` -- build the indexes over a synthetic sample and run one of
  each query type, printing the I/O comparison.
* ``replay`` -- serve a Figure 2 workload through the concurrent query
  service and print per-query / service-level metrics.
* ``info`` -- version, subsystem inventory, and experiment index.
* ``bench-hint`` -- how to regenerate the paper's figures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import (
        Database,
        KdTreeIndex,
        LayeredGridIndex,
        VoronoiIndex,
        knn_boundary_points,
        polyhedron_full_scan,
        sdss_color_sample,
    )
    from repro.datasets import QueryWorkload
    from repro.geometry import Box

    bands = ["u", "g", "r", "i", "z"]
    print(f"generating {args.rows} objects of the 5-D color space...")
    sample = sdss_color_sample(args.rows, seed=args.seed)
    db = Database.in_memory(buffer_pages=args.buffer_pages)
    kd = KdTreeIndex.build(db, "mag_kd", sample.columns(), bands)
    voronoi = VoronoiIndex.build(
        db, "mag_vor", sample.columns(), bands,
        num_seeds=max(64, int(np.sqrt(args.rows) * 2)),
    )
    grid = LayeredGridIndex.build(db, "mag_grid", sample.columns(), bands)

    workload = QueryWorkload(sample.magnitudes, seed=args.seed)
    poly = workload.figure2_query().polyhedron(bands)
    _, kd_stats = kd.query_polyhedron(poly)
    _, vor_stats = voronoi.query_polyhedron(poly)
    _, scan_stats = polyhedron_full_scan(kd.table, bands, poly)
    print("\nFigure 2 selection:")
    print(f"  kd-tree   {kd_stats.rows_returned:>7} rows  {kd_stats.pages_touched:>6} pages")
    print(f"  voronoi   {vor_stats.rows_returned:>7} rows  {vor_stats.pages_touched:>6} pages")
    print(f"  full scan {scan_stats.rows_returned:>7} rows  {scan_stats.pages_touched:>6} pages")

    neighbors = knn_boundary_points(kd, sample.magnitudes[0], k=10)
    print(
        f"\n10-NN: {neighbors.stats.extra['boxes_examined']} of "
        f"{kd.tree.num_leaves} kd-boxes examined, "
        f"{neighbors.stats.pages_touched} pages"
    )

    window = Box.cube(np.median(sample.magnitudes, axis=0), 1.5)
    result = grid.sample_box(window, 1000)
    print(
        f"adaptive sample: {len(result.row_ids)} points, "
        f"{result.stats.pages_touched}/{grid.table.num_pages} pages"
    )
    return 0


_BANDS = ["u", "g", "r", "i", "z"]


def _build_columns(args: argparse.Namespace):
    """The replayed table: the SDSS sample plus stable object ids."""
    from repro import sdss_color_sample

    sample = sdss_color_sample(args.rows, seed=args.seed)
    columns = dict(sample.columns())
    # Stable object ids survive re-clustering, so the sharded and
    # unsharded engines can be compared row-for-row via oid sets.
    columns["oid"] = np.arange(args.rows, dtype=np.int64)
    return sample, columns


def _index_cache_bytes(args: argparse.Namespace) -> int | None:
    """``--index-cache-mb`` in bytes (``None`` = database default)."""
    mb = args.index_cache_mb
    return None if mb is None else int(mb * (1 << 20))


def _serving_database(args: argparse.Namespace):
    """The in-memory database ``replay`` and ``serve`` build the table in."""
    from repro import Database

    cache_bytes = _index_cache_bytes(args)
    return Database.in_memory(
        buffer_pages=args.buffer_pages,
        **({} if cache_bytes is None else {"index_cache_bytes": cache_bytes}),
    )


def _replay_queries(args: argparse.Namespace, sample):
    """The replayed stream and its unique-query count: a mixed Figure 2
    workload, repeated to ``--duplicate-fraction``."""
    from repro.datasets import QueryWorkload

    workload = QueryWorkload(sample.magnitudes, seed=args.seed)
    unique = max(1, int(args.queries * (1.0 - args.duplicate_fraction)))
    base = workload.mixed(unique, selectivities=[0.001, 0.01, 0.05, 0.2, 0.5])
    polyhedra = [q.polyhedron(_BANDS) for q in base]
    return [polyhedra[i % unique] for i in range(args.queries)], unique


def _build_engine(args: argparse.Namespace, db, columns):
    """Build the engine the flags describe; returns ``(engine, service_db)``."""
    from repro import KdPartitioner, KdTreeIndex, QueryPlanner, ScatterGatherExecutor
    from repro.bitmap import BitmapIndex

    transport = args.transport
    engine_choice = args.engine
    if args.shards:
        print(
            f"generating {args.rows} objects and partitioning into "
            f"{args.shards} kd-subtree shards (transport={transport}, "
            f"engine={engine_choice})..."
        )
        partitioner = KdPartitioner(
            args.shards,
            buffer_pages=args.buffer_pages,
            index_cache_bytes=_index_cache_bytes(args),
        )
        if transport == "process":
            specs = partitioner.plan("magnitudes", columns, _BANDS)
            engine = ScatterGatherExecutor(
                specs=specs, transport="process", seed=args.seed,
                engine=engine_choice,
            )
        else:
            shard_set = partitioner.partition("magnitudes", columns, _BANDS)
            engine = ScatterGatherExecutor(
                shard_set, seed=args.seed, engine=engine_choice
            )
        print(f"shard layout: {engine.layout_version}")
        return engine, None
    print(
        f"generating {args.rows} objects and building the kd-tree and "
        f"bitmap indexes (engine={engine_choice})..."
    )
    index = KdTreeIndex.build(db, "magnitudes", columns, _BANDS)
    BitmapIndex.build(db, "magnitudes", _BANDS)
    return QueryPlanner(index, seed=args.seed, engine=engine_choice), db


def _print_index_cache(engine) -> None:
    """Paged kd-tree node-cache summary (hit rate, pages decoded)."""
    io = engine.io_stats().snapshot().as_dict()
    probes = io.get("node_cache_hits", 0) + io.get("node_cache_misses", 0)
    decoded = io.get("index_pages_decoded", 0)
    if not probes and not decoded:
        return
    rate = io.get("node_cache_hits", 0) / probes if probes else 0.0
    print(
        f"index node cache: {rate:.1%} hit rate "
        f"({io.get('node_cache_hits', 0)}/{probes} probes), "
        f"{decoded} index pages decoded, "
        f"{io.get('node_cache_evictions', 0)} evictions"
    )


def _print_worker_util(engine, wall_s: float) -> None:
    """Per-worker utilization of a sharded engine: busy seconds over the
    replay wall clock."""
    print(f"per-worker utilization (transport={engine.transport}):")
    for entry in engine.worker_stats():
        util = entry["busy_s"] / wall_s if wall_s > 0 else 0.0
        pid = f" pid={entry['pid']}" if entry.get("pid") else ""
        respawns = (
            f" respawns={entry['respawns']}" if entry.get("respawns") else ""
        )
        print(
            f"  shard {entry['shard_id']}:{pid} {entry['requests']} requests, "
            f"busy {entry['busy_s']:.2f} s ({util:.0%} of wall){respawns}"
        )


def _verify_against_reference(args, db, columns, queries, result_rows) -> int:
    """Row-identity check against a freshly built unsharded reference.

    Clustering differs between engines, so compare the stable oid sets
    rather than physical row ids.  Returns the mismatch count.
    """
    from repro import KdTreeIndex, QueryPlanner
    from repro.service import run_serial

    reference = QueryPlanner(
        KdTreeIndex.build(db, "magnitudes_ref", columns, _BANDS),
        seed=args.seed,
    )
    serial = run_serial(reference, queries)
    return sum(
        1
        for idx, rows in enumerate(serial)
        if result_rows[idx] is None
        or set(result_rows[idx]["oid"].tolist()) != set(rows["oid"].tolist())
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.service import QueryService, replay_workload, rows_equal, run_serial

    if args.connect:
        return _replay_connect(args)

    sample, columns = _build_columns(args)
    db = _serving_database(args)

    queries, unique = _replay_queries(args, sample)
    engine, service_db = _build_engine(args, db, columns)

    print(
        f"replaying {len(queries)} queries ({unique} unique) at "
        f"concurrency {args.concurrency} over {args.workers} workers..."
    )
    if args.batch > 1:
        print(
            f"micro-batching up to {args.batch} queries per worker pull "
            f"(formation delay {args.batch_delay_ms:.1f} ms)"
        )
    service = QueryService(
        service_db,
        engine,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
        batch_size=args.batch,
        batch_delay_s=args.batch_delay_ms / 1e3,
    )
    with service:
        report = replay_workload(service, queries, concurrency=args.concurrency)

    print(
        f"\ncompleted {report.completed}/{len(queries)} in "
        f"{report.wall_time_s:.2f} s ({report.throughput_qps:.1f} q/s), "
        f"{report.resubmissions} backpressure retries "
        f"[transport={engine.transport}]"
    )
    if args.shards:
        _print_worker_util(engine, report.wall_time_s)
    _print_index_cache(engine)
    summary = service.metrics.summary()
    if summary["batches"]:
        print(
            f"batched execution: {int(summary['batches'])} batches, "
            f"mean occupancy {summary['mean_batch_occupancy']:.2f}, "
            f"{int(summary['shared_decode_hits'])} shared decode hits over "
            f"{int(summary['batch_pages_decoded'])} decoded pages"
        )
    print(service.metrics.format_report(db.procedures if service_db else None))
    calib = engine.cost_report()
    if calib:
        factors = ", ".join(
            f"{name}={factor:.2f}" for name, factor in sorted(calib["calibration"].items())
        )
        print(
            f"planner cost calibration ({int(calib['observations'])} obs): "
            f"{factors}; selectivity bias {calib['selectivity_bias']:+.4f}"
        )
    if report.errors:
        print(f"errors: {[(i, type(e).__name__) for i, e in report.errors[:5]]}")

    exit_code = 0
    if args.verify:
        print("\nverifying against serial unsharded execution...")
        if args.shards:
            result_rows = [
                outcome.rows if outcome is not None else None
                for outcome in report.outcomes
            ]
            mismatches = _verify_against_reference(
                args, db, columns, queries, result_rows
            )
        else:
            serial = run_serial(engine, queries)
            mismatches = sum(
                1
                for idx, rows in enumerate(serial)
                if report.outcomes[idx] is None
                or not rows_equal(report.outcomes[idx].rows, rows)
            )
        print(f"row-for-row mismatches: {mismatches}")
        exit_code = 1 if mismatches else 0
    engine.close()
    return exit_code


def _replay_connect(args: argparse.Namespace) -> int:
    """Replay over the network against a running ``repro serve``.

    The server must have been started with the same ``--rows``/``--seed``
    for ``--verify`` to be meaningful (the reference is rebuilt locally
    from those flags).
    """
    from repro import Database
    from repro.net import replay_over_network

    host, _, port_text = args.connect.rpartition(":")
    if not host:
        print(f"--connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return 2
    port = int(port_text)

    sample, columns = _build_columns(args)
    queries, unique = _replay_queries(args, sample)

    print(
        f"replaying {len(queries)} queries ({unique} unique) against "
        f"{host}:{port} at concurrency {args.concurrency}..."
    )
    report = replay_over_network(
        host,
        port,
        queries,
        concurrency=args.concurrency,
        deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
    )
    transport = report.report.get("transport", "unknown")
    print(
        f"\ncompleted {report.completed}/{len(queries)} in "
        f"{report.wall_time_s:.2f} s ({report.throughput_qps:.1f} q/s), "
        f"{report.resubmissions} backpressure retries "
        f"[server transport={transport}]"
    )
    if report.errors:
        print(f"errors: {[(i, type(e).__name__) for i, e in report.errors[:5]]}")

    exit_code = 0
    if args.verify:
        print("\nverifying against a locally rebuilt unsharded reference...")
        db = Database.in_memory(buffer_pages=args.buffer_pages)
        result_rows = [
            outcome.rows if outcome is not None else None
            for outcome in report.outcomes
        ]
        mismatches = _verify_against_reference(args, db, columns, queries, result_rows)
        print(f"row-for-row mismatches: {mismatches}")
        exit_code = 1 if mismatches else 0
    if report.completed < len(queries):
        exit_code = exit_code or 1
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network front door until SIGTERM/SIGINT drains it."""
    from repro.net.server import serve
    from repro.service import QueryService

    _, columns = _build_columns(args)
    db = _serving_database(args)
    engine, service_db = _build_engine(args, db, columns)
    service = QueryService(
        service_db,
        engine,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline=args.deadline_ms / 1e3 if args.deadline_ms else None,
        batch_size=args.batch,
        batch_delay_s=args.batch_delay_ms / 1e3,
    ).start()

    def announce(server) -> None:
        host, port = server.address
        print(
            f"serving magnitudes ({args.rows} rows, "
            f"transport={engine.transport}) "
            f"on {host}:{port}",
            flush=True,
        )

    try:
        serve(
            service,
            args.host,
            args.port,
            max_inflight=args.max_inflight,
            ready_callback=announce,
        )
    finally:
        if service.running:
            service.stop(drain=False)
        engine.close()
    print("drained; bye")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} -- Csabai et al., CIDR 2007 reproduction")
    print("\nsubsystems:")
    for package, what in (
        ("repro.db", "paged column-store engine with I/O accounting"),
        ("repro.geometry", "boxes, convex polyhedra, space-filling curves"),
        ("repro.tessellation", "Delaunay/Voronoi substrate + edge store"),
        ("repro.core", "layered grid, kd-tree, boundary-point k-NN, Voronoi index"),
        ("repro.vectype", "binary vs UDT vector columns"),
        ("repro.datasets", "synthetic SDSS color space, spectra, sky, workload"),
        ("repro.ml", "PCA, least squares, photo-z, BST clustering"),
        ("repro.viz", "adaptive visualization pipeline"),
    ):
        print(f"  {package:<20} {what}")
    print("\nexperiments: see DESIGN.md (index) and EXPERIMENTS.md (results)")
    return 0


def _cmd_bench_hint(args: argparse.Namespace) -> int:
    print("pytest benchmarks/ --benchmark-only -s      # all figures/tables")
    print("REPRO_BENCH_SCALE=4 pytest benchmarks/ --benchmark-only -s")
    print("pytest benchmarks/test_fig5_kdtree_speedup.py --benchmark-only -s")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.core.engines import engine_choices

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spatial indexing of large multidimensional databases "
        "(CIDR 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build the indexes and run sample queries")
    demo.add_argument("--rows", type=int, default=50_000)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--buffer-pages", type=int, default=4096)
    demo.set_defaults(func=_cmd_demo)

    # Flags that build the serving stack, declared once for both
    # ``replay`` and ``serve``.
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--rows", type=int, default=20_000)
    serving.add_argument("--seed", type=int, default=0)
    serving.add_argument("--buffer-pages", type=int, default=4096)
    serving.add_argument(
        "--index-cache-mb", type=float, default=None,
        help="decoded node-cache budget per paged kd-tree, in MiB "
        "(default: the database's 4 MiB)",
    )
    serving.add_argument(
        "--shards", type=int, default=0,
        help="kd-subtree shard count (power of two; 0 = single unsharded index)",
    )
    serving.add_argument(
        "--transport", choices=["thread", "process"], default="thread",
        help="shard execution transport (process = one worker process per shard)",
    )
    serving.add_argument(
        "--engine", choices=engine_choices(),
        default="auto",
        help="force one access path for every query (auto = cost-based choice)",
    )
    serving.add_argument("--workers", type=int, default=8, help="service worker threads")
    serving.add_argument("--queue-depth", type=int, default=32)
    serving.add_argument(
        "--deadline-ms", type=float, default=0.0,
        help="per-query deadline in milliseconds (0 = none)",
    )
    serving.add_argument(
        "--batch", type=int, default=1,
        help="max queries micro-batched per worker pull (1 = solo execution)",
    )
    serving.add_argument(
        "--batch-delay-ms", type=float, default=0.0,
        help="bounded batch-formation delay in milliseconds",
    )

    replay = sub.add_parser(
        "replay", parents=[serving],
        help="serve a Figure 2 workload through the query service",
    )
    replay.add_argument("--queries", type=int, default=240)
    replay.add_argument("--concurrency", type=int, default=8, help="client threads")
    replay.add_argument(
        "--duplicate-fraction", type=float, default=0.5,
        help="fraction of replayed queries that repeat an earlier one",
    )
    replay.add_argument(
        "--verify", action="store_true",
        help="re-run serially and compare results row for row",
    )
    replay.add_argument(
        "--connect", default="",
        help="HOST:PORT of a running `repro serve` to replay against "
        "(skips building a local service)",
    )
    replay.set_defaults(func=_cmd_replay)

    srv = sub.add_parser(
        "serve", parents=[serving],
        help="serve the query service over TCP until SIGTERM",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    srv.add_argument(
        "--max-inflight", type=int, default=32,
        help="per-connection (per-tenant) in-flight query cap",
    )
    srv.set_defaults(func=_cmd_serve)

    info = sub.add_parser("info", help="package inventory")
    info.set_defaults(func=_cmd_info)

    hint = sub.add_parser("bench-hint", help="how to regenerate the figures")
    hint.set_defaults(func=_cmd_bench_hint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
