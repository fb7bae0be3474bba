"""Smoke test of the benchmark itself (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs every workload at 1/25 scale, one seed untraced and another traced,
through the real command line.  Each run must exit 0 (so every answer
passed the oracle), print every metric ``BENCHMARK.json`` declares for
that mode exactly once, and end with the contract's JSON line; all of it
must finish within 30 s.  A renamed public function breaks the shims of
``trace.py`` here, before it can break a performance run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUDGET_S = 30.0

_spent = {"seconds": 0.0}


def _run(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", "16"]
    command += ["--trace", str(trace), "--scale", "0.04"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=120)
    _spent["seconds"] += time.perf_counter() - start
    return done


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(("seed", "trace"), [(11, 0), (12, 1)])
def test_workload_runs_and_prints_every_metric(workload: str, seed: int, trace: int):
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()

    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = [line.split()[0] for line in lines[1:-1]]
    assert sorted(printed) == sorted(m["name"] for m in declared)

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


def test_smoke_fits_its_budget():
    """Runs last (pytest keeps file order): the runs above took < 30 s."""
    assert 0.0 < _spent["seconds"] < BUDGET_S, f"smoke runs took {_spent['seconds']:.1f} s"
