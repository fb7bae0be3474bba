"""Run one benchmark workload and print every metric by name.

    python3 benchmarks/e2e/run.py --workload needle_warm --seed 7 --seconds 16 --trace 0

``--trace 0`` is the untraced timed run; it prints the end-to-end metrics
of ``BENCHMARK.json``.  ``--trace 1`` runs the first quarter of the same
stream twice -- untraced, then with the timing shims of ``trace.py``
installed -- and prints the per-layer metrics.  Either way every answer is
compared with the plain-numpy oracle outside the timed window, the last
line of standard output is one JSON object, and the exit code is non-zero
if any operation failed, came back partial, or disagreed with the oracle.

README.md next to this file says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink table and streams (smoke test only)"
    )
    parser.add_argument("--out", help="append this run's full record to a JSON-lines file")
    parser.add_argument("--dump-spans", help="write the traced pass's spans to a JSON-lines file")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()[0]

    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import numpy

    from harness import run_end_to_end, run_traced
    from workloads import WORKLOADS

    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    # Everything this run writes -- page files, the worker pool's socket --
    # goes under one directory inside the checkout, removed on the way out.
    # The path stays relative so the pool's AF_UNIX socket name stays short.
    scratch = Path(".bench_build") / f"e2e-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        run = run_traced if args.trace else run_end_to_end
        result = run(WORKLOADS[args.workload], args, scratch)
    finally:
        # The envs reap their own workers; this catches what a crash left.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(5)
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(units) != set(metrics):
        print(
            f"metric names disagree with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
            file=sys.stderr,
        )
        return 2
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "traced": bool(args.trace),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **result["details"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    print(
        f"# {args.workload} seed={args.seed} traced={bool(args.trace)} "
        f"window={record['window_s']:.2f}s ops={attempted} failed={failed} "
        f"truncated={record['truncated']}"
    )
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>18.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
