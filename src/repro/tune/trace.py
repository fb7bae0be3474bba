"""Workload trace capture: the observations the auto-tuner learns from.

Every executed query leaves one compact :class:`TraceObservation` behind
-- a normalized fingerprint, the per-axis slab the query constrained,
its IN-list values, the engine the planner chose, predicted vs. actual
pages decoded, and wall time.  Observations land in a *bounded* in-memory
ring (old entries fall off; a service that runs for days keeps a
recent-window trace, not an unbounded log) and round-trip through JSONL
so a trace captured from a live replay can feed ``python -m repro tune``
offline.

The features deliberately mirror what the cost models can actually use:
axis-aligned bounds (:func:`repro.bitmap.index.axis_bounds`) and
membership value lists are exactly the inputs of the kd, scan, zone-map,
and bitmap cost formulas, so the
:class:`~repro.tune.evaluator.CostReplayEvaluator` can re-score a
recorded query under a *different* configuration without re-executing
it.  Oblique halfspaces contribute nothing to any index's pruning and
are represented only by what they leave behind (their bounding slab).

Recording is fed by two hooks: :class:`~repro.core.planner.QueryPlanner`
records around its own engine dispatch (solo and batched), and the
service executor records for engines that do not record themselves
(e.g. a sharded scatter-gather engine).  Cache hits execute nothing and
are not recorded.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.bitmap.index import axis_bounds
from repro.geometry.halfspace import Polyhedron
from repro.service.result_cache import query_fingerprint

__all__ = [
    "DEFAULT_TRACE_CAPACITY",
    "TraceObservation",
    "WorkloadTraceRecorder",
    "classify_query",
    "read_trace",
    "write_trace",
]

#: Ring capacity: enough to cover a long replay window while bounding a
#: perpetually serving process to a few MB of observations.
DEFAULT_TRACE_CAPACITY = 4096


def classify_query(
    polyhedron: Polyhedron | None,
    memberships: dict | None,
    lows: Sequence[float],
    highs: Sequence[float],
) -> str:
    """Coarse workload-class label for one query.

    ``membership`` (IN-list probes) dominates, then ``oblique`` (any
    multi-coefficient halfspace -- no index prunes on it), then ``box``
    (at least one finite axis bound) and ``full`` (unconstrained).  The
    label is a reporting/clustering convenience; the evaluator scores
    from the numeric features, never from the label.
    """
    if memberships:
        return "membership"
    if polyhedron is not None:
        for halfspace in polyhedron.halfspaces:
            if len(np.flatnonzero(halfspace.normal)) > 1:
                return "oblique"
    if any(math.isfinite(v) for v in lows) or any(math.isfinite(v) for v in highs):
        return "box"
    return "full"


@dataclass(frozen=True)
class TraceObservation:
    """One executed query, reduced to what the cost models consume."""

    #: Normalized layout-independent query fingerprint (dedup / repeats).
    fingerprint: str
    #: Workload-class label (``membership`` / ``box`` / ``oblique`` / ``full``).
    kind: str
    #: Coordinate columns the bounds refer to, in axis order.
    dims: tuple[str, ...]
    #: Per-axis lower bounds implied by axis-aligned halfspaces (-inf = free).
    lows: tuple[float, ...]
    #: Per-axis upper bounds (+inf = free).
    highs: tuple[float, ...]
    #: IN-list predicates: column -> sorted distinct probe values.
    memberships: dict[str, tuple[float, ...]] = field(default_factory=dict)
    #: Engine that served the query (``kdtree``/``scan``/``bitmap``/``hybrid``).
    engine: str = ""
    #: The planner's calibrated pages-decoded prediction for that engine.
    predicted_pages: float = float("nan")
    #: Pages actually decoded.
    actual_pages: int = 0
    wall_s: float = 0.0
    estimated_selectivity: float = float("nan")
    actual_selectivity: float = float("nan")
    rows_returned: int = 0
    #: Which replica served it (empty on a single-table engine).
    replica: str = ""

    # -- JSONL round-trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-safe form (inf/nan encoded as ``None``)."""

        def _num(value: float):
            return float(value) if math.isfinite(value) else None

        return {
            "fp": self.fingerprint,
            "kind": self.kind,
            "dims": list(self.dims),
            "lows": [_num(v) for v in self.lows],
            "highs": [_num(v) for v in self.highs],
            "in": {col: list(vals) for col, vals in self.memberships.items()},
            "engine": self.engine,
            "pred_pages": _num(self.predicted_pages),
            "pages": int(self.actual_pages),
            "wall_s": float(self.wall_s),
            "est_sel": _num(self.estimated_selectivity),
            "act_sel": _num(self.actual_selectivity),
            "rows": int(self.rows_returned),
            "replica": self.replica,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TraceObservation":
        """Inverse of :meth:`to_json_dict`."""
        lows = tuple(
            float("-inf") if v is None else float(v) for v in payload["lows"]
        )
        highs = tuple(
            float("inf") if v is None else float(v) for v in payload["highs"]
        )

        def _num(value, default=float("nan")):
            return default if value is None else float(value)

        return cls(
            fingerprint=payload["fp"],
            kind=payload["kind"],
            dims=tuple(payload["dims"]),
            lows=lows,
            highs=highs,
            memberships={
                col: tuple(float(v) for v in vals)
                for col, vals in payload.get("in", {}).items()
            },
            engine=payload.get("engine", ""),
            predicted_pages=_num(payload.get("pred_pages")),
            actual_pages=int(payload.get("pages", 0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            estimated_selectivity=_num(payload.get("est_sel")),
            actual_selectivity=_num(payload.get("act_sel")),
            rows_returned=int(payload.get("rows", 0)),
            replica=payload.get("replica", ""),
        )


def observation_from_query(
    table_name: str,
    dims: Sequence[str],
    polyhedron: Polyhedron | None,
    memberships: dict | None,
    planned,
    wall_s: float,
    replica: str = "",
) -> TraceObservation:
    """Reduce one executed :class:`PlannedQuery` to a trace observation."""
    dims = tuple(dims)
    if polyhedron is not None:
        lows, highs = axis_bounds(polyhedron, len(dims))
        fingerprint = query_fingerprint(
            table_name,
            list(dims),
            polyhedron,
            index_name="trace",
            layout_version="",
            memberships=memberships,
        )
    else:  # pragma: no cover - every engine path passes a polyhedron
        lows = np.full(len(dims), -np.inf)
        highs = np.full(len(dims), np.inf)
        fingerprint = f"trace:{table_name}:none"
    member_values = {
        col: tuple(np.unique(np.asarray(values, dtype=np.float64)).tolist())
        for col, values in (memberships or {}).items()
    }
    stats = planned.stats
    predicted = float(stats.extra.get(f"cost_{planned.chosen_path}", float("nan")))
    return TraceObservation(
        fingerprint=fingerprint,
        kind=classify_query(polyhedron, memberships, lows, highs),
        dims=dims,
        lows=tuple(float(v) for v in lows),
        highs=tuple(float(v) for v in highs),
        memberships=member_values,
        engine=planned.chosen_path,
        predicted_pages=predicted,
        actual_pages=int(stats.pages_touched),
        wall_s=float(wall_s),
        estimated_selectivity=float(planned.estimated_selectivity),
        actual_selectivity=float(planned.actual_selectivity),
        rows_returned=int(stats.rows_returned),
        replica=replica,
    )


class WorkloadTraceRecorder:
    """Thread-safe bounded ring of :class:`TraceObservation` entries.

    ``record`` is called from planner worker threads on the query hot
    path, so it does only the feature reduction and a deque append; all
    aggregation happens at read time.  ``recorded`` counts every
    observation ever seen (including ones the ring has since evicted).
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError("trace capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[TraceObservation] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.recorded = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def record(
        self,
        table_name: str,
        dims: Sequence[str],
        polyhedron: Polyhedron | None,
        memberships: dict | None,
        planned,
        wall_s: float,
        replica: str = "",
    ) -> TraceObservation:
        """Fold one executed query into the ring; returns the observation."""
        observation = observation_from_query(
            table_name, dims, polyhedron, memberships, planned, wall_s, replica
        )
        with self._lock:
            self._ring.append(observation)
            self.recorded += 1
        return observation

    def extend(self, observations: Iterable[TraceObservation]) -> None:
        """Append pre-built observations (trace import)."""
        with self._lock:
            for observation in observations:
                self._ring.append(observation)
                self.recorded += 1

    def observations(self) -> list[TraceObservation]:
        """Snapshot of the ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop the ring (the ``recorded`` total is kept)."""
        with self._lock:
            self._ring.clear()

    def kind_counts(self) -> dict[str, int]:
        """Observations per workload class (reporting)."""
        counts: dict[str, int] = {}
        for observation in self.observations():
            counts[observation.kind] = counts.get(observation.kind, 0) + 1
        return counts

    def export_jsonl(self, path: str | Path) -> int:
        """Write the ring as JSON-lines; returns the line count."""
        return write_trace(path, self.observations())


def write_trace(path: str | Path, observations: Iterable[TraceObservation]) -> int:
    """Write observations as one JSON object per line; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for observation in observations:
            fh.write(json.dumps(observation.to_json_dict()))
            fh.write("\n")
            count += 1
    return count


def read_trace(path: str | Path) -> list[TraceObservation]:
    """Load a JSONL trace written by :func:`write_trace` (blank lines skipped)."""
    observations: list[TraceObservation] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                observations.append(TraceObservation.from_json_dict(json.loads(line)))
    return observations
