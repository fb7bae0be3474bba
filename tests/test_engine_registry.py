"""The engine registry and the typed front-end contract.

The four access paths are named once, in :mod:`repro.core.engines`, and
every front-end the service drives is a
:class:`~repro.core.planner.QueryEngine`, so callers call its members
instead of probing for them.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro import Database, KdTreeIndex, QueryPlanner, ScatterGatherExecutor
from repro.core.engines import ENGINES, KD, SCAN, engine_choices, engine_named
from repro.core.planner import QueryEngine
from repro.net.pool import ShardWorkerPool

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("path", ["service/executor.py", "cli.py", "core/planner.py"])
def test_front_ends_call_the_contract_instead_of_probing(path):
    text = (SRC / path).read_text(encoding="utf-8")
    assert "hasattr(" not in text
    assert "getattr(" not in text


def test_engine_names_are_spelled_only_in_the_registry():
    exempt = {SRC / "core" / "engines.py"}
    literal = re.compile(r"""["'](kdtree|bitmap|hybrid)["']""")
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path not in exempt and literal.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_registry_runs_the_scan_last():
    assert [engine.name for engine in ENGINES] == ["kdtree", "bitmap", "hybrid", "scan"]
    assert ENGINES[0] is KD and ENGINES[-1] is SCAN
    assert engine_named("kd") is KD
    assert engine_choices() == ["auto", "kd", "kdtree", "bitmap", "hybrid", "scan"]
    with pytest.raises(ValueError, match="unknown engine"):
        engine_named("rtree")
    with pytest.raises(ValueError, match="unknown engine"):
        QueryPlanner(_index(), engine="rtree")


def test_calibration_keys_are_the_registry_names():
    planner = QueryPlanner(_index())
    assert list(planner.cost_report()["calibration"]) == [e.name for e in ENGINES]


@pytest.mark.parametrize("cls", [QueryPlanner, ScatterGatherExecutor, ShardWorkerPool])
def test_every_front_end_is_a_query_engine(cls):
    assert issubclass(cls, QueryEngine)


@pytest.mark.parametrize("cls", [QueryPlanner, ShardWorkerPool])
def test_entry_points_are_bound_per_class(cls):
    # Per-class instrumentation patches these names in the class's own
    # namespace, so inherited entry points are bound there explicitly.
    assert "execute" in vars(cls)
    assert "execute_batch" in vars(cls)


def _index() -> KdTreeIndex:
    rng = np.random.default_rng(0)
    data = {name: rng.normal(size=300) for name in ("x", "y")}
    return KdTreeIndex.build(Database.in_memory(buffer_pages=None), "pts", data, ["x", "y"])
