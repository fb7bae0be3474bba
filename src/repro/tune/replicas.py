"""Divergent replicas: N copies of one table, each built to a different
tuned configuration, with cost-scored routing in front.

Classical replication keeps copies identical and buys availability.
Divergent replication (the tuner's output) makes each copy *good at
something*: one replica might carry a fine-binned bitmap over the one
column the membership workload probes, another full zone maps and a big
decoded cache for repeated slab scans.  Every replica holds the same
rows and answers every query exactly -- the configs change page-pruning
power, never answers -- so the :class:`ReplicaRouter` is free to send
each query wherever it is predicted cheapest, and to *degrade* to any
live replica when the preferred one faults.

Builds reuse the existing machinery end to end: an unsharded replica is
loaded by the clustered loader (:func:`~repro.core.kdtree.cluster` /
:func:`~repro.core.kdtree.install`) into a
:class:`~repro.core.kdtree.KdTreeIndex` + optional
:class:`~repro.bitmap.index.BitmapIndex` behind a
:class:`~repro.core.planner.QueryPlanner`; a sharded replica goes
through :meth:`~repro.shard.partitioner.KdPartitioner.plan` /
:func:`~repro.shard.partitioner.build_shard` on either transport.
Ingest fans writes to *every* replica through each one's WAL-first
delta path, so replicas stay row-identical between merges.

:class:`ReplicaSpec` is the wire form: JSON-serializable
``(replica_id, table, dims, config)`` records a control plane can ship
to remote builders, mirroring how :class:`ShardSpec` ships shards to
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bitmap.index import axis_bounds
from repro.core.batch import BatchMemberResult, BatchResult
from repro.core.kdtree import cluster, install
from repro.core.planner import PlannedQuery, QueryEngine, QueryPlanner
from repro.db.catalog import Database, DatabaseOptions
from repro.db.errors import StorageFault
from repro.db.stats import IOStats
from repro.db.table import DEFAULT_ROWS_PER_PAGE
from repro.geometry.halfspace import Polyhedron
from repro.tune.config import TuningConfig
from repro.tune.evaluator import CostReplayEvaluator, TableProfile
from repro.tune.trace import TraceObservation, classify_query

__all__ = ["Replica", "ReplicaRouter", "ReplicaSet", "ReplicaSpec"]


@dataclass(frozen=True)
class ReplicaSpec:
    """JSON-shippable recipe for one replica (the wire artifact)."""

    replica_id: int
    table: str
    dims: tuple[str, ...]
    config: TuningConfig
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "table": self.table,
            "dims": list(self.dims),
            "config": self.config.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplicaSpec":
        return cls(
            replica_id=int(payload["replica_id"]),
            table=payload["table"],
            dims=tuple(payload["dims"]),
            config=TuningConfig.from_dict(payload["config"]),
            seed=int(payload.get("seed", 0)),
        )


@dataclass
class Replica:
    """One materialized copy: its config and its engine."""

    replica_id: int
    config: TuningConfig
    #: A QueryPlanner (unsharded) or ScatterGatherExecutor/worker pool
    #: (sharded).
    engine: QueryEngine
    #: The replica's own database (``None`` for sharded engines, whose
    #: shards each own one).
    database: Database | None = None

    @property
    def tag(self) -> str:
        return f"r{self.replica_id}"

    @property
    def scope(self) -> str:
        """Cache-scope token: replica identity + config identity."""
        return f"r{self.replica_id}:{self.config.config_id()}"


def _build_replica(
    replica_id: int,
    name: str,
    data: dict[str, np.ndarray],
    dims: list[str],
    config: TuningConfig,
    seed: int,
    transport: str,
) -> Replica:
    """Materialize one replica to its config, reusing the shard machinery."""
    bitmap_dims = (
        list(config.bitmap_dims) if config.bitmap_dims is not None else list(dims)
    )
    # A tuned cluster_dim asks for the axis-major kd layout: the tree
    # splits that axis at every level, so the clustered table comes out
    # sorted by it (divergent sort orders across replicas).
    axis_policy = (
        f"prefer:{list(dims).index(config.cluster_dim)}"
        if config.cluster_dim in dims
        else "widest"
    )
    options = DatabaseOptions(
        zone_maps=config.zone_maps,
        zone_map_columns=config.zone_map_columns,
        decoded_cache_bytes=config.decoded_cache_bytes,
        index_cache_bytes=config.index_cache_bytes,
    )
    if config.shards:
        from repro.shard.executor import ScatterGatherExecutor
        from repro.shard.partitioner import KdPartitioner, ShardSet, build_shard

        partitioner = KdPartitioner(config.shards, axis_policy=axis_policy)
        specs = partitioner.plan(
            name,
            data,
            list(dims),
            options=options,
            bitmap_bins=config.bitmap_bins,
            bitmap_dims=config.bitmap_dims,
        )
        if transport == "process":
            engine = ScatterGatherExecutor(
                specs=specs, transport="process", seed=seed + replica_id
            )
        else:
            # The shard set's root box defaults to the union of the
            # partition cells.
            shard_set = ShardSet(name, list(dims), [build_shard(spec) for spec in specs])
            engine = ScatterGatherExecutor(shard_set, seed=seed + replica_id)
        return Replica(replica_id, config, engine)
    database = options.open()
    index, _ = install(
        database,
        name,
        data,
        dims,
        cluster(data, dims, axis_policy=axis_policy),
        bitmap=(bitmap_dims, config.bitmap_bins, dims) if config.bitmap_bins else None,
    )
    planner = QueryPlanner(index, seed=seed + replica_id)
    return Replica(replica_id, config, planner, database=database)


class ReplicaSet:
    """N divergently-configured copies of one table behind one write path.

    Reads go through :class:`ReplicaRouter`; writes come through
    :meth:`insert_rows` / :meth:`delete_by_key`, which fan to every
    replica's existing WAL/delta ingest path so the copies stay
    row-identical (each replica assigns its own internal row ids --
    layouts differ by design, so cross-replica identity is by key
    column, not row id).
    """

    def __init__(self, name: str, dims: list[str], replicas: list[Replica],
                 profile: TableProfile, key_column: str | None = None):
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self.name = name
        self.dims = list(dims)
        self.replicas = list(replicas)
        self.profile = profile
        self.key_column = key_column

    @classmethod
    def build(
        cls,
        name: str,
        data: dict[str, np.ndarray],
        dims: Sequence[str],
        configs: Sequence[TuningConfig],
        *,
        seed: int = 0,
        transport: str = "thread",
        key_column: str | None = None,
        profile: TableProfile | None = None,
    ) -> "ReplicaSet":
        """Materialize one replica per config over the same rows."""
        dims = list(dims)
        if not configs:
            raise ValueError("need at least one config")
        num_rows = len(next(iter(data.values())))
        if profile is None:
            profile = TableProfile(
                data, dims, num_rows, DEFAULT_ROWS_PER_PAGE, seed=seed
            )
        replicas = [
            _build_replica(i, name, data, dims, config, seed, transport)
            for i, config in enumerate(configs)
        ]
        return cls(name, dims, replicas, profile, key_column=key_column)

    def specs(self) -> list[ReplicaSpec]:
        """The set's wire form (what a control plane would ship/persist)."""
        return [
            ReplicaSpec(
                replica_id=replica.replica_id,
                table=self.name,
                dims=tuple(self.dims),
                config=replica.config,
            )
            for replica in self.replicas
        ]

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas)

    def __getitem__(self, replica_id: int) -> Replica:
        return self.replicas[replica_id]

    # -- write fan-out -------------------------------------------------------

    def insert_rows(self, data: dict[str, np.ndarray]) -> np.ndarray:
        """Insert into every replica's delta tier; primary's ids returned.

        Each replica WALs and indexes the rows through its own ingest
        path, so merge-on-read sees them everywhere immediately -- the
        regression tests assert rows are visible on all replicas before
        any merge runs.
        """
        ids: np.ndarray | None = None
        for replica in self.replicas:
            engine = replica.engine
            if isinstance(engine, QueryPlanner):
                assigned = engine.index.table.insert_rows(data)
            else:
                assigned = engine.insert_rows(data)
            if ids is None:
                ids = np.asarray(assigned)
        return ids if ids is not None else np.empty(0, dtype=np.int64)

    def delete_by_key(self, values) -> int:
        """Delete rows by key-column membership on every replica.

        Row ids are replica-local (layouts differ), so deletes resolve
        per replica: a membership probe on the key column finds that
        replica's ids, which its tombstone path then removes.  Returns
        the count removed from the first replica.
        """
        if self.key_column is None:
            raise ValueError("delete_by_key needs key_column set at build time")
        values = np.atleast_1d(np.asarray(values))
        trivial = _trivial_polyhedron(len(self.dims))
        removed = 0
        for position, replica in enumerate(self.replicas):
            engine = replica.engine
            planned = engine.execute(
                trivial, memberships={self.key_column: values}
            )
            ids = planned.rows.get("_row_id", np.empty(0, dtype=np.int64))
            if isinstance(engine, QueryPlanner):
                count = engine.index.table.delete_rows(ids)
            else:
                count = engine.delete_rows(ids)
            if position == 0:
                removed = int(count)
        return removed

    def merge_all(self, threshold: float = 0.0) -> None:
        """Fold every replica's delta tier into its main layout."""
        for replica in self.replicas:
            engine = replica.engine
            if isinstance(engine, QueryPlanner):
                replica.database.ingest.merge_all(threshold=threshold)
            else:
                engine.merge(threshold=threshold)

    def close(self) -> None:
        for replica in self.replicas:
            replica.engine.close()


def _trivial_polyhedron(dim: int) -> Polyhedron:
    """An always-true constraint (membership-only queries)."""
    from repro.geometry.halfspace import Halfspace

    normal = np.zeros(dim)
    normal[0] = 1.0
    return Polyhedron([Halfspace(normal, np.inf)])


class ReplicaRouter(QueryEngine):
    """A query engine that routes each query to its best replica.

    Scoring: replicas whose engine prices a query in memory (unsharded
    planners) answer with their calibrated prediction -- for the bitmap
    engine that is the *exact* candidate page count, computed from
    compressed bitmap ANDs before any I/O.  Engines whose
    ``predict_cost`` is ``None`` (sharded ones) are scored by the shared
    :class:`CostReplayEvaluator` config model instead, so no routing
    decision ever crosses a process boundary.

    Degradation: replicas are tried in ascending predicted cost; a
    :class:`StorageFault` from one moves on to the next live replica.
    Any answer served by a non-preferred replica is flagged
    ``fallback`` and ``no_cache`` -- its fingerprint belongs to the
    preferred replica's cache scope, and a degraded answer must never
    be replayed under it.
    """

    def __init__(self, replica_set: ReplicaSet):
        self.replica_set = replica_set
        self._evaluator = CostReplayEvaluator(replica_set.profile)
        self._routes = {replica.replica_id: 0 for replica in replica_set}
        self._degraded = 0

    # -- the QueryEngine contract -------------------------------------------

    @property
    def table_name(self) -> str:
        return self.replica_set.name

    @property
    def dims(self) -> list[str]:
        return list(self.replica_set.dims)

    @property
    def layout_version(self) -> str:
        """Every replica's layout, concatenated: any copy moving (merge,
        repartition, ingest epoch) invalidates cached results."""
        parts = [
            f"{replica.scope}@{replica.engine.layout_version}"
            for replica in self.replica_set
        ]
        return "replicas:" + ";".join(parts)

    # -- scoring -------------------------------------------------------------

    def _query_observation(
        self, polyhedron: Polyhedron | None, memberships
    ) -> TraceObservation:
        """Reduce a live query to the evaluator's feature form."""
        dims = tuple(self.replica_set.dims)
        if polyhedron is not None:
            lows, highs = axis_bounds(polyhedron, len(dims))
        else:
            lows = np.full(len(dims), -np.inf)
            highs = np.full(len(dims), np.inf)
        member_values = {
            col: tuple(np.unique(np.asarray(vals, dtype=np.float64)).tolist())
            for col, vals in (memberships or {}).items()
        }
        return TraceObservation(
            fingerprint="",
            kind=classify_query(polyhedron, memberships, lows, highs),
            dims=dims,
            lows=tuple(float(v) for v in lows),
            highs=tuple(float(v) for v in highs),
            memberships=member_values,
        )

    def score(
        self, polyhedron: Polyhedron, memberships=None
    ) -> dict[int, float]:
        """Predicted pages decoded per replica for one query."""
        observation: TraceObservation | None = None
        scores: dict[int, float] = {}
        for replica in self.replica_set:
            predicted = replica.engine.predict_cost(polyhedron, memberships)
            if predicted is None:
                if observation is None:
                    observation = self._query_observation(polyhedron, memberships)
                predicted = self._evaluator.predict_pages(replica.config, observation)
            scores[replica.replica_id] = float(predicted)
        return scores

    def route(self, polyhedron: Polyhedron, memberships=None) -> list[int]:
        """Replica ids in ascending predicted cost (ties: lower id)."""
        scores = self.score(polyhedron, memberships)
        return sorted(scores, key=lambda rid: (scores[rid], rid))

    def routing_report(self) -> dict:
        """Cumulative routing shares and degradation count."""
        return {
            "routes": dict(self._routes),
            "degraded": self._degraded,
        }

    def cache_scope(self, polyhedron: Polyhedron, memberships=None) -> str:
        """The preferred replica's cache-scope token for this query.

        Folded into result-cache fingerprints by the service: results
        are cached *per chosen replica config*, so two replicas never
        share entries even for the same geometric question.
        """
        preferred = self.route(polyhedron, memberships)[0]
        return self.replica_set[preferred].scope

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        polyhedron: Polyhedron,
        cancel_check=None,
        memberships=None,
        exclude: frozenset[int] = frozenset(),
    ) -> PlannedQuery:
        """Route to the cheapest replica, degrading down the order on faults."""
        order = [
            rid for rid in self.route(polyhedron, memberships)
            if rid not in exclude
        ]
        if not order:
            raise StorageFault("no live replica available")
        last_error: StorageFault | None = None
        for position, replica_id in enumerate(order):
            replica = self.replica_set[replica_id]
            try:
                planned = replica.engine.execute(
                    polyhedron, cancel_check=cancel_check, memberships=memberships
                )
            except StorageFault as exc:
                last_error = exc
                continue
            planned.stats.extra["replica_id"] = replica_id
            self._routes[replica_id] = self._routes.get(replica_id, 0) + 1
            if position > 0:
                self._degraded += 1
                planned.fallback = True
                planned.no_cache = True
                if not planned.fallback_reason:
                    planned.fallback_reason = (
                        f"preferred replica {order[0]} faulted; served by "
                        f"replica {replica_id}"
                    )
            return planned
        raise last_error if last_error is not None else StorageFault(
            "all replicas failed"
        )

    def execute_batch(
        self, polyhedra, cancel_checks=None, memberships_list=None
    ) -> BatchResult:
        """Route a micro-batch: members group by preferred replica.

        Each group runs through its replica's own ``execute_batch``
        (shared kd traversals / candidate fetches within the group); a
        group-level or member-level :class:`StorageFault` re-runs the
        member solo through :meth:`execute` with the dead replica
        excluded, so one replica's outage degrades those members instead
        of failing the batch.
        """
        n = len(polyhedra)
        checks = list(cancel_checks) if cancel_checks is not None else [None] * n
        member_filters = (
            list(memberships_list) if memberships_list is not None else [None] * n
        )
        result = BatchResult(
            members=[BatchMemberResult() for _ in range(n)], occupancy=n
        )
        groups: dict[int, list[int]] = {}
        for m in range(n):
            preferred = self.route(polyhedra[m], member_filters[m])[0]
            groups.setdefault(preferred, []).append(m)
        for replica_id in sorted(groups):
            group = groups[replica_id]
            try:
                sub = self.replica_set[replica_id].engine.execute_batch(
                    [polyhedra[m] for m in group],
                    cancel_checks=[checks[m] for m in group],
                    memberships_list=[member_filters[m] for m in group],
                )
            except StorageFault:
                self._solo_retry(group, polyhedra, checks, member_filters,
                                 result, exclude=frozenset({replica_id}))
                continue
            result.pages_decoded += sub.pages_decoded
            result.shared_decode_hits += sub.shared_decode_hits
            retry: list[int] = []
            for m, member in zip(group, sub.members):
                if isinstance(member.error, StorageFault):
                    retry.append(m)
                    continue
                if member.planned is not None:
                    member.planned.stats.extra["replica_id"] = replica_id
                    self._routes[replica_id] = self._routes.get(replica_id, 0) + 1
                result.members[m] = member
            if retry:
                self._solo_retry(retry, polyhedra, checks, member_filters,
                                 result, exclude=frozenset({replica_id}))
        return result

    def _solo_retry(self, members, polyhedra, checks, member_filters, result,
                    exclude: frozenset[int]) -> None:
        """Per-member fallback path of :meth:`execute_batch`."""
        for m in members:
            try:
                planned = self.execute(
                    polyhedra[m],
                    cancel_check=checks[m],
                    memberships=member_filters[m],
                    exclude=exclude,
                )
            except BaseException as exc:
                result.members[m].error = exc
                continue
            if exclude:
                planned.fallback = True
                planned.no_cache = True
                if not planned.fallback_reason:
                    planned.fallback_reason = (
                        f"batch replica {sorted(exclude)} faulted"
                    )
            result.members[m].planned = planned

    # -- observability / lifecycle ------------------------------------------

    def attach_trace_recorder(self, recorder, tag: str = "") -> None:
        """Wire a workload-trace ring into every replica, tagged by replica.

        The replicas record what they execute; the router itself never
        does, so each query is recorded once.
        """
        for replica in self.replica_set:
            replica.engine.attach_trace_recorder(recorder, replica.tag)

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {
            f"routed_r{rid}": count for rid, count in sorted(self._routes.items())
        }
        total["degraded"] = self._degraded
        for replica in self.replica_set:
            for key, value in replica.engine.counters().items():
                total[key] = total.get(key, 0) + value
        return total

    def io_stats(self) -> IOStats:
        total = IOStats()
        for replica in self.replica_set:
            total.add(**replica.engine.io_stats().snapshot().as_dict())
        return total

    def cost_report(self) -> dict:
        """Per-replica planner calibration snapshots (where there is one)."""
        reports = {replica.tag: replica.engine.cost_report() for replica in self.replica_set}
        return {tag: report for tag, report in reports.items() if report}

    def close(self) -> None:
        self.replica_set.close()
