"""A cost-based access-path planner.

The paper's rule of thumb -- "if the ratio of the returned / total
number of rows is below 0.25 kd-trees can outperform simple SQL queries
by orders of magnitudes" (§3.2) -- is a planning rule: estimate the
query's selectivity, then choose the index or the scan.  This module
implements that loop the way a real engine would:

1. estimate selectivity from a small *page sample* (a TABLESAMPLE-style
   probe: cheap, biased only by intra-page correlation);
2. choose among the registered engines (:mod:`repro.core.engines`): the
   paper's crossover rule picks the kd-tree-vs-scan baseline, and every
   other available engine -- the bitmap and the hybrid, when a binned
   bitmap index exists -- competes against it on estimated pages decoded;
3. execute and report both the choice and the estimate, so experiments
   can score the planner against exhaustive execution.

:class:`QueryEngine` is the one contract every engine the service drives
implements; :class:`QueryPlanner` is the single-table one.  It has one
execution path: plan each member of a batch, group the members by chosen
engine and run one shared pass per group (a solo query is a batch of one).

The cost model is calibrated online: per engine, an EWMA of
actual/predicted pages decoded multiplies future predictions, and the
running estimated-vs-actual selectivity error feeds back into the
bitmap cost's candidate fraction.  ``cost_report()`` exposes the
calibration state for tests and the service metrics.

The planner is also where the engine degrades gracefully under storage
faults, by one rule: when an index group's shared pass dies on an
unrecoverable :class:`~repro.db.errors.StorageFault` (every retry budget
below it exhausted), its members join the scan group, which runs last
-- the scan re-reads the pages, and a transient burst that killed the
traversal has usually passed.  A fault in the scan pass itself is the
error of every member in it.  Fallbacks are reported on
the :class:`PlannedQuery` so the service can surface them in its
metrics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.bitmap.index import axis_bounds
from repro.core.batch import BatchMemberResult, BatchResult
from repro.core.engines import ENGINES, KD, SCAN, Engine, Pricing, engine_named
from repro.core.kdtree import KdTreeIndex
from repro.db.errors import StaleLayoutError, StorageFault
from repro.db.stats import IOStats, QueryStats
from repro.geometry.halfspace import Polyhedron

__all__ = ["PlannedQuery", "QueryEngine", "QueryPlanner"]

#: Backstop on re-running a query after background merges retire the
#: generation it was reading.  Each retry is gated on the physical
#: layout actually having moved (a stale error without a swap re-raises
#: immediately), so the loop cannot spin on a genuine missing-page bug;
#: the cap only guards against a writer merging in a pathological tight
#: loop faster than any query can finish.
_STALE_LAYOUT_RETRIES = 32

#: EWMA smoothing for the online cost calibration.
_CALIBRATION_ALPHA = 0.2

#: Per-observation clamp on actual/predicted pages, so one outlier
#: query cannot swing an engine's calibration by orders of magnitude.
_CALIBRATION_CLAMP = (0.1, 10.0)


@dataclass
class _Plan:
    """One member's planning outcome, carried to its finalisation.

    ``candidates`` is as from :meth:`QueryPlanner._raw_costs`; a group
    that degrades to the scan sets ``fallback`` / ``reason``.
    """

    engine: Engine
    estimate: float
    probed: int
    raw: dict
    calibrated: dict
    candidates: tuple | None
    fallback: bool = False
    reason: str = ""


@dataclass
class PlannedQuery:
    """Outcome of a planned execution.

    ``fallback`` is set when the query was answered by a different path
    than the planner chose because the chosen one hit an unrecoverable
    storage fault (or a forced engine was unavailable);
    ``fallback_reason`` names the cause.  ``actual_selectivity`` is
    returned rows / live rows -- compared against
    ``estimated_selectivity`` it yields the service's
    ``selectivity_error`` metric.

    The shard fields stay at their zero defaults on a single-index
    planner; a sharded engine (:class:`repro.shard.ScatterGatherExecutor`)
    fills them in.  ``partial`` means at least one shard died on an
    unrecoverable fault and the result covers only the surviving shards;
    ``failed_shards`` names the casualties.

    The service fields stay at their defaults on an engine's answer; the
    query service fills them in on the copy it hands its client
    (:class:`~repro.service.QueryService`), and the TCP client gets the
    same record back from the DONE frame.  A cache hit gets its own copy:
    the cached record itself is never changed.
    """

    rows: dict
    stats: QueryStats
    chosen_path: str
    estimated_selectivity: float
    sampled_pages: int
    fallback: bool = False
    fallback_reason: str = ""
    actual_selectivity: float = float("nan")
    shards_dispatched: int = 0
    shards_pruned: int = 0
    shard_faults: int = 0
    partial: bool = False
    failed_shards: tuple = ()
    cache_hit: bool = False
    #: Seconds between submission and the start of execution.
    queue_wait_s: float = 0.0
    exec_time_s: float = 0.0
    query_id: int = 0
    session_id: str = ""
    tag: str = ""


class QueryEngine:
    """What the service, TCP server and CLI drive.

    Subclasses: :class:`QueryPlanner` (one table) and
    :class:`~repro.shard.coordinator.ShardCoordinator` (both shard
    transports).  Each supplies ``table_name`` / ``dims`` /
    ``layout_version``, ``io_stats()`` and ``_run_batch``, which
    :meth:`execute` (a batch of one) and :meth:`execute_batch` share.
    """

    #: Where execution happens (reports, replays, the TCP greeting).
    transport = "inprocess"

    #: Name of the table results come from (cache fingerprinting).
    table_name: str
    #: Ordered coordinate column names.
    dims: list[str]
    #: Layout tag folded into result-cache fingerprints; it moves on every
    #: write, merge and re-cut.
    layout_version: str

    def execute(
        self, polyhedron: Polyhedron, cancel_check=None, memberships=None
    ) -> PlannedQuery:
        """Run one query: a batch of one whose member error is raised here.

        ``cancel_check`` is a zero-argument callable (or ``None``) run
        before planning and inside the page/node loops; raising from it
        abandons the query cooperatively -- this is how the query
        service enforces per-query deadlines.  ``memberships`` maps
        column names to IN-list value arrays, ANDed with the polyhedron.
        """
        (member,) = self._run_batch([polyhedron], [cancel_check], [memberships]).members
        if member.error is not None:
            raise member.error
        return member.planned

    def execute_batch(
        self, polyhedra, cancel_checks=None, memberships_list=None
    ) -> BatchResult:
        """Run a micro-batch with shared work; each member keeps its own
        check, filters and error."""
        n = len(polyhedra)
        return self._run_batch(
            list(polyhedra),
            list(cancel_checks) if cancel_checks is not None else [None] * n,
            list(memberships_list) if memberships_list is not None else [None] * n,
        )

    def _run_batch(self, polyhedra, checks, member_filters) -> BatchResult:
        raise NotImplementedError

    def counters(self) -> dict[str, int]:
        """Cumulative engine counters (the service report's ``engine``)."""
        return {}

    def io_stats(self) -> IOStats:
        """I/O counters of every storage backend behind this engine."""
        raise NotImplementedError

    def cost_report(self) -> dict:
        """Cost-model calibration state; empty when there is none."""
        return {}

    def close(self) -> None:
        """Release whatever the engine runs on (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class QueryPlanner(QueryEngine):
    """Chooses among the registered engines per query.

    Parameters
    ----------
    index:
        The kd-tree index over the table (the planner's fast path).
    crossover:
        Selectivity above which the scan is the baseline; the paper's
        0.25.
    sample_pages:
        Pages probed for the selectivity estimate.
    engine:
        ``"auto"`` (cost-based choice) or a forced engine, by any name
        :func:`~repro.core.engines.engine_named` accepts, for A/B runs.
        Forcing an engine whose index the table lacks degrades to the
        baseline choice and annotates the result as a fallback.
    """

    # Bound in this class's own namespace so per-class instrumentation
    # times the planner alone.
    execute = QueryEngine.execute
    execute_batch = QueryEngine.execute_batch

    def __init__(
        self,
        index: KdTreeIndex,
        crossover: float = 0.25,
        sample_pages: int = 8,
        seed: int = 0,
        statistics=None,
        engine: str = "auto",
    ):
        """``statistics`` may be a
        :class:`repro.db.histogram.HistogramStatistics` built over the
        index's dims; when present the planner estimates from it
        (zero plan-time I/O) instead of probing pages.
        """
        if not (0.0 < crossover <= 1.0):
            raise ValueError("crossover must be in (0, 1]")
        if sample_pages < 1:
            raise ValueError("sample_pages must be >= 1")
        forced = None if engine == "auto" else engine_named(engine)
        self._index = index
        self._db = index.table.database
        self._index_key = f"{index.table.name}.kdtree"
        self._bitmap_key = f"{index.table.name}.bitmap"
        self.crossover = crossover
        self.sample_pages = sample_pages
        self.statistics = statistics
        #: The forced engine, or ``None`` for the cost-based choice.
        self.engine = forced
        self._rng = np.random.default_rng(seed)
        # The query service shares one planner across worker threads;
        # numpy Generators are not thread-safe, so draws are serialized.
        self._rng_lock = threading.Lock()
        # The probe's sampled points, cached per table snapshot: tables
        # are immutable once created, so concurrent queries need not
        # re-read the same sample pages -- the first probe pays the I/O
        # and every later estimate evaluates against the cached points.
        # Catalog mutations (drop/recreate) invalidate the cache through
        # the same listener channel the result cache rides on.
        self._probe_lock = threading.Lock()
        self._probe_cache: tuple[np.ndarray, int] | None = None
        # Online cost-model state, shared across worker threads.
        self._cost_lock = threading.Lock()
        self._calibration = {engine.name: 1.0 for engine in ENGINES}
        self._selectivity_bias = 0.0
        self._selectivity_abs_error = 0.0
        self._observations = 0
        self._restore_calibration()
        index.table.database.add_mutation_listener(self._on_catalog_mutation)

    def _restore_calibration(self) -> None:
        """Warm-start cost state from the catalog's persisted snapshot.

        A reattached database carries the calibration its planners
        learned before shutdown; without a snapshot (fresh build, older
        catalog version) the neutral defaults stand.
        """
        snapshot = self._db.planner_calibration(self._index.table.name)
        if not snapshot:
            return
        low, high = _CALIBRATION_CLAMP
        with self._cost_lock:
            for name, value in snapshot.get("calibration", {}).items():
                if name in self._calibration and np.isfinite(value):
                    self._calibration[name] = min(high, max(low, float(value)))
            self._selectivity_bias = float(snapshot.get("selectivity_bias", 0.0))
            self._selectivity_abs_error = float(
                snapshot.get("selectivity_abs_error", 0.0)
            )
            self._observations = int(snapshot.get("observations", 0))

    def _on_catalog_mutation(self, table_name: str) -> None:
        if table_name == self.index.table.name:
            with self._probe_lock:
                self._probe_cache = None

    @property
    def index(self) -> KdTreeIndex:
        """The current kd-tree index, re-resolved through the catalog.

        A background merge swaps a fresh index object into the catalog
        under the same key; resolving per access means the planner picks
        up the new generation without being re-wired.  Falls back to the
        construction-time index when the catalog entry is gone (e.g. an
        index built outside the catalog in tests).
        """
        current = self._db.index_if_exists(self._index_key)
        return current if current is not None else self._index

    @property
    def bitmap_index(self):
        """The table's bitmap index, or ``None`` when none is registered.

        Resolved through the catalog on every access for the same
        reason as :attr:`index`: background merges rebuild and swap it.
        Its absence simply disables the cost-based second stage.
        """
        return self._db.index_if_exists(self._bitmap_key)

    # -- the QueryEngine contract -------------------------------------------

    @property
    def table_name(self) -> str:
        return self.index.table.name

    @property
    def dims(self) -> list[str]:
        return self.index.dims

    @property
    def layout_version(self) -> str:
        """Physical-layout tag folded into result-cache fingerprints.

        Tracks the table's generation and write epoch
        (``g<gen>.e<epoch>``): every ingest write and every merge bumps
        it, so a cached result can never be served across a layout or
        delta change.  Sharded engines return a digest of their shard
        boundaries (plus per-shard epochs) instead.
        """
        return f"unsharded:{self.index.table.layout_version}"

    def io_stats(self) -> IOStats:
        return self._db.io_stats

    def estimate_selectivity(self, polyhedron: Polyhedron) -> tuple[float, int]:
        """Page-sample estimate of returned/total.

        Returns ``(estimate, pages_probed)``.  Clustered tables make the
        pages spatially coherent, so the probe uses a spread of pages
        across the whole file rather than a contiguous prefix.
        """
        if self.statistics is not None:
            return self.statistics.estimate_polyhedron(polyhedron), 0
        points, probed = self._probe_sample()
        if len(points) == 0:
            return 0.0, 0
        return float(polyhedron.contains_points(points).sum()) / len(points), probed

    def _probe_sample(self) -> tuple[np.ndarray, int]:
        """The cached probe point sample, reading the pages on first use.

        Returns ``(points, pages_probed)`` where ``points`` stacks the
        coordinate columns of the sampled pages.  The sample is drawn
        once per table snapshot; a concurrent first call may probe twice
        (both reads land in the buffer pool), after which every caller
        shares one array.
        """
        with self._probe_lock:
            cached = self._probe_cache
        if cached is not None:
            return cached
        table = self.index.table
        if table.num_pages == 0:
            sample: tuple[np.ndarray, int] = (np.empty((0, len(self.index.dims))), 0)
            with self._probe_lock:
                self._probe_cache = sample
            return sample
        probe = min(self.sample_pages, table.num_pages)
        page_ids = np.linspace(0, table.num_pages - 1, probe).astype(int)
        # Jitter to avoid aliasing with any periodic layout.
        with self._rng_lock:
            jitter = self._rng.integers(0, max(table.num_pages // probe, 1), probe)
        page_ids = np.minimum(page_ids + jitter, table.num_pages - 1)
        dims = self.index.dims
        probe_ids = [int(page_id) for page_id in np.unique(page_ids)]
        # The probe pages are scattered across the file; one coalesced
        # read pulls them all into the pool instead of N round trips
        # (unless the engine was configured with read-ahead disabled).
        if table.readahead_pages:
            table.prefetch(probe_ids)
        pieces = []
        for page_id in probe_ids:
            page = table.read_page(page_id)
            if page.num_rows:
                pieces.append(np.column_stack([page.columns[d] for d in dims]))
        points = (
            np.concatenate(pieces) if pieces else np.empty((0, len(dims)))
        )
        sample = (points, len(probe_ids))
        with self._probe_lock:
            self._probe_cache = sample
        return sample

    # -- cost model ---------------------------------------------------------

    def axis_fractions(self, polyhedron: Polyhedron) -> np.ndarray:
        """Per-axis survival fractions of the query's bounding slab.

        Fraction of the probe sample inside ``[low_i, high_i]`` for every
        axis the polyhedron constrains axis-aligned (1.0 elsewhere);
        the kd cost's per-level split-survival input.
        """
        dim = len(self.index.dims)
        fractions = np.ones(dim)
        lows, highs = axis_bounds(polyhedron, dim)
        constrained = np.isfinite(lows) | np.isfinite(highs)
        if not constrained.any():
            return fractions
        try:
            points, _ = self._probe_sample()
        except StorageFault:
            return fractions
        if len(points) == 0:
            return fractions
        floor = 1.0 / len(points)
        for axis in np.nonzero(constrained)[0]:
            inside = (points[:, axis] >= lows[axis]) & (points[:, axis] <= highs[axis])
            fractions[axis] = max(float(inside.mean()), floor)
        return fractions

    @property
    def selectivity_bias(self) -> float:
        """Running mean of actual minus estimated selectivity (EWMA)."""
        with self._cost_lock:
            return self._selectivity_bias

    def _raw_costs(self, polyhedron: Polyhedron, memberships):
        """Predicted pages decoded per engine, before calibration.

        Returns ``(costs, candidates)``: each registered engine's price
        (``inf`` where the engine is unavailable), and the bitmap
        candidates pricing built (see :class:`~repro.core.engines.Pricing`).
        """
        query = Pricing(polyhedron, memberships)
        for engine in ENGINES:
            query.costs[engine.name] = (
                engine.price(self, query) if engine.available(self) else float("inf")
            )
        return query.costs, query.candidates

    def _calibrated(self, raw: dict[str, float]) -> dict[str, float]:
        with self._cost_lock:
            calibration = dict(self._calibration)
        return {name: cost * calibration.get(name, 1.0) for name, cost in raw.items()}

    def _choose_engine(
        self, estimate: float, raw: dict[str, float]
    ) -> tuple[Engine, dict[str, float], str]:
        """Pick the engine; returns ``(engine, calibrated_costs, fallback_reason)``.

        Stage 1 is the paper's crossover rule (kd below, scan above;
        a NaN estimate from a failed probe chooses the scan).  Stage 2
        lets every other available engine compete against that baseline
        on calibrated predicted pages, ties going to the earlier entrant
        (baseline first, then registry order).
        """
        calibrated = self._calibrated(raw)
        baseline = KD if estimate <= self.crossover else SCAN
        forced = self.engine
        if forced is not None:
            if not forced.available(self):
                reason = f"forced engine {forced.name!r} unavailable: no {forced.needs}"
                return baseline, calibrated, reason
            return forced, calibrated, ""
        best = baseline
        for engine in ENGINES:
            # An unavailable engine was priced at infinity.
            if engine not in (KD, SCAN) and calibrated.get(
                engine.name, float("inf")
            ) < calibrated.get(best.name, float("inf")):
                best = engine
        return best, calibrated, ""

    def _observe(
        self,
        engine: str,
        raw_cost: float | None,
        stats: QueryStats,
        estimate: float,
        actual: float,
    ) -> None:
        """Fold one executed query back into the cost-model state."""
        low, high = _CALIBRATION_CLAMP
        alpha = _CALIBRATION_ALPHA
        with self._cost_lock:
            if raw_cost is not None and np.isfinite(raw_cost) and raw_cost > 0:
                ratio = min(high, max(low, stats.pages_touched / raw_cost))
                blended = (1 - alpha) * self._calibration[engine] + alpha * ratio
                self._calibration[engine] = min(high, max(low, blended))
            if np.isfinite(estimate):
                error = actual - estimate
                self._selectivity_bias = (
                    (1 - alpha) * self._selectivity_bias + alpha * error
                )
                self._selectivity_abs_error = (
                    (1 - alpha) * self._selectivity_abs_error + alpha * abs(error)
                )
            self._observations += 1
        # Outside the cost lock: hand the catalog the latest snapshot so
        # save_catalog persists learned constants across restarts.
        self._db.save_planner_calibration(self._index.table.name, self.cost_report())

    def cost_report(self) -> dict:
        """Snapshot of the online calibration state (tests, metrics)."""
        with self._cost_lock:
            return {
                "calibration": dict(self._calibration),
                "selectivity_bias": self._selectivity_bias,
                "selectivity_abs_error": self._selectivity_abs_error,
                "observations": self._observations,
            }

    def _finalize(
        self, planned: PlannedQuery, raw: dict[str, float], calibrated: dict[str, float]
    ) -> PlannedQuery:
        """Record cost extras, actual selectivity, and calibration feedback."""
        stats = planned.stats
        for name, cost in calibrated.items():
            if np.isfinite(cost):
                stats.extra[f"cost_{name}"] = float(cost)
        actual = planned.stats.rows_returned / max(1, self.index.table.num_live_rows)
        planned.actual_selectivity = actual
        self._observe(
            planned.chosen_path,
            raw.get(planned.chosen_path),
            stats,
            planned.estimated_selectivity,
            actual,
        )
        return planned

    # -- planning -----------------------------------------------------------

    def _plan_member(self, polyhedron: Polyhedron, memberships) -> _Plan:
        """Estimate + engine choice for one query.

        The estimate folds the membership lists' bin-mass fraction in
        (when a bitmap index can supply one), so an IN-list query over a
        full-space box still reads as selective.
        """
        fallback = False
        reason = ""
        try:
            estimate, probed = self.estimate_selectivity(polyhedron)
        except StorageFault as exc:
            estimate, probed = float("nan"), 0
            fallback = True
            reason = f"selectivity probe failed: {type(exc).__name__}"
        if memberships:
            bitmap = self.bitmap_index
            if bitmap is not None:
                member_fraction = bitmap.estimate_fraction(None, memberships)
                if member_fraction is not None:
                    estimate *= member_fraction
        try:
            raw, candidates = self._raw_costs(polyhedron, memberships)
        except StorageFault:
            raw, candidates = {SCAN.name: float(self.index.table.num_pages or 1)}, None
        engine, calibrated, forced_reason = self._choose_engine(estimate, raw)
        if forced_reason and not fallback:
            fallback, reason = True, forced_reason
        return _Plan(engine, estimate, probed, raw, calibrated, candidates, fallback, reason)

    def _retry_when_stale(self, attempt):
        """Run ``attempt``, re-running it whenever the layout moved under it.

        Re-runs only when the physical generation observed through the
        catalog actually changed since the attempt started -- a stale
        error without a swap means a genuinely missing page and is
        re-raised at once.  Every retry therefore consumes one concurrent
        merge swap; ``_STALE_LAYOUT_RETRIES`` bounds the pathological
        case of a writer merging faster than any query can complete.
        """
        for _ in range(_STALE_LAYOUT_RETRIES):
            before = self.index.table.physical_name
            try:
                return attempt()
            except StaleLayoutError:
                with self._probe_lock:
                    self._probe_cache = None
                if self.index.table.physical_name == before:
                    raise
        return attempt()

    def _run_batch(self, polyhedra, checks, member_filters) -> BatchResult:
        """Plan every member, then run one shared pass per engine group.

        Members are planned individually (the cached probe makes the
        estimates zero-I/O after the first), then grouped by chosen
        engine, and each group's engine runs one shared pass -- a
        batch's members may split across engines, every group decoding
        each needed page once for all of its members.

        Isolation matches the batch executors underneath: a member whose
        check raises, or whose polyhedron does not match the index's
        dimensionality, is recorded as that member's ``error`` and its
        siblings keep going.  A :class:`StorageFault` that kills an index
        group's shared pass moves that group's members into the scan
        group, which runs last, flagged as a fallback; one that kills the
        scan pass becomes the error of each member in it (a solo query
        therefore raises it -- there is nothing cheaper to degrade to).

        A :class:`~repro.db.errors.StaleLayoutError` anywhere in the
        batch (a merge retired the layout mid-flight) restarts the whole
        batch against the re-resolved current layout (see
        :meth:`_retry_when_stale`).
        """
        return self._retry_when_stale(
            lambda: self._run_members(polyhedra, checks, member_filters)
        )

    def _run_members(self, polyhedra, checks, member_filters) -> BatchResult:
        """One planning-and-execution attempt against the current layout."""
        n = len(polyhedra)
        result = BatchResult(
            members=[BatchMemberResult() for _ in range(n)], occupancy=n
        )
        plans: list[_Plan | None] = [None] * n
        groups: dict[Engine, list[int]] = {engine: [] for engine in ENGINES}
        dim = len(self.index.dims)
        for m, (polyhedron, check) in enumerate(zip(polyhedra, checks)):
            try:
                if check is not None:
                    check()
                if polyhedron.dim != dim:
                    raise ValueError(
                        f"polyhedron dim {polyhedron.dim} != index dim {dim}"
                    )
            except BaseException as exc:
                result.members[m].error = exc
                continue
            plans[m] = self._plan_member(polyhedron, member_filters[m])
            groups[plans[m].engine].append(m)

        for engine in ENGINES:
            group = groups[engine]
            if not group:
                continue
            try:
                outcomes, counters = engine.run(
                    self,
                    [polyhedra[m] for m in group],
                    [checks[m] for m in group],
                    [member_filters[m] for m in group],
                    [plans[m].candidates for m in group],
                )
            except StorageFault as exc:
                if engine is SCAN:
                    for m in group:
                        result.members[m].error = exc
                    continue
                for m in group:
                    plans[m].fallback = True
                    plans[m].reason = f"{engine.name} path failed: {type(exc).__name__}"
                groups[SCAN] += group
                continue
            result.pages_decoded += counters["pages_decoded"]
            result.shared_decode_hits += counters["shared_decode_hits"]
            for m, (rows, stats, error) in zip(group, outcomes):
                if error is not None:
                    result.members[m].error = error
                    continue
                plan = plans[m]
                planned = self._finalize(
                    PlannedQuery(
                        rows=rows,
                        stats=stats,
                        chosen_path=engine.name,
                        estimated_selectivity=plan.estimate,
                        sampled_pages=plan.probed,
                        fallback=plan.fallback,
                        fallback_reason=plan.reason,
                    ),
                    plan.raw,
                    plan.calibrated,
                )
                result.members[m].planned = planned
        return result
