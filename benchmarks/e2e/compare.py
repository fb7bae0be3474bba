"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appended: several seeds of
one or more workloads.  ``A`` is the base (the parent commit, or the first
of two runs of the same commit); ``B`` is what is judged against it.  The
same tool serves both questions: an A/A check passes when every row reads
``ok``, and a change is clean when no row reads ``worse``.

One row per (workload, end-to-end metric):

    median A, median B, the ratio B/A *with A named as its base*, the
    spread of each side (distance between the quartiles over the median),
    the bound from ``BENCHMARK.json``, and a verdict:

    ok          B is not worse than A by more than the bound
    worse       B is worse than A by more than the bound
    unresolved  either side's own spread is wider than the bound, so the
                runs cannot tell

Per-layer metrics (records of ``--trace 1`` runs) have no bound; they are
listed with both medians and the ratio only.  The exit code is 1 when any
row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[tuple[str, bool], dict[str, list[float]]]:
    """``{(workload, traced): {metric: [values, one per run]}}``."""
    runs: dict[tuple[str, bool], dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = runs.setdefault((record["workload"], record["traced"]), {})
            for name, value in record["metrics"].items():
                metrics.setdefault(name, []).append(value)
    return runs


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """By what share of ``base`` the other median is worse (negative = better)."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layered = {m["name"]: m for m in spec["per_layer"]}
    a_runs, b_runs = load(argv[0]), load(argv[1])

    any_worse = False
    header = (
        f"{'workload':<14} {'metric':<30} {'median A':>14} {'median B':>14} "
        f"{'B/A (base A)':>13} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    print(header)
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, traced = key
        declared = layered if traced else bounded
        for name, meta in declared.items():
            a, b = a_runs[key].get(name), b_runs[key].get(name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:>13.4f}" if med_a else f"{'-':>13}"
            row = f"{workload:<14} {name:<30} {med_a:>14.5g} {med_b:>14.5g} {ratio}"
            if traced:
                print(row)
                continue
            bound = meta["bound"]
            spread_a, spread_b = spread(a), spread(b)
            if worsening(med_a, med_b, meta["better"]) > bound:
                verdict = "worse"
                any_worse = True
            elif name != "setup_s" and max(spread_a, spread_b) > bound:
                # set-up runs a few times per run; its spread is reported
                # but, as in the driver's rule, only its medians are judged
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{row} {spread_a:>9.4f} {spread_b:>9.4f} {bound:>6.2f}  {verdict}"
                f"  (n={len(a)}/{len(b)})"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
