"""A cost-based access-path planner.

The paper's rule of thumb -- "if the ratio of the returned / total
number of rows is below 0.25 kd-trees can outperform simple SQL queries
by orders of magnitudes" (§3.2) -- is a planning rule: estimate the
query's selectivity, then choose the index or the scan.  This module
implements that loop the way a real engine would:

1. estimate selectivity from a small *page sample* (a TABLESAMPLE-style
   probe: cheap, biased only by intra-page correlation);
2. choose the access path: the paper's crossover rule picks the
   kd-tree-vs-scan baseline, and when a binned bitmap index exists over
   the table a second cost-based stage compares the baseline against
   the bitmap engine and the hybrid (bitmap prefilter restricted to the
   kd traversal's row ranges) on estimated pages decoded;
3. execute and report both the choice and the estimate, so experiments
   can score the planner against exhaustive execution.

There is one execution path.  :meth:`QueryPlanner.execute_batch` plans
each member, groups the members by chosen engine and runs one shared
pass per group; :meth:`QueryPlanner.execute` is a batch of one that
re-raises its member's error.

The cost model is calibrated online: per engine, an EWMA of
actual/predicted pages decoded multiplies future predictions, and the
running estimated-vs-actual selectivity error feeds back into the
bitmap cost's candidate fraction.  ``cost_report()`` exposes the
calibration state for tests and the service metrics.

The planner is also where the engine degrades gracefully under storage
faults, by one rule: when a kd, bitmap or hybrid group's shared pass
dies on an unrecoverable :class:`~repro.db.errors.StorageFault` (every
retry budget below it exhausted), its members join the scan group,
which runs last -- the scan re-reads the pages, and a transient burst
that killed the traversal has usually passed.  A fault in the scan pass
itself is the error of every member in it.  Fallbacks are reported on
the :class:`PlannedQuery` so the service can surface them in its
metrics.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.bitmap.executor import batch_bitmap_query, batch_hybrid_query
from repro.bitmap.index import axis_bounds
from repro.core.batch import BatchMemberResult, BatchResult, batch_kd_query
from repro.core.kdtree import KdTreeIndex
from repro.core.queries import polyhedron_batch_full_scan
from repro.db.errors import StaleLayoutError, StorageFault
from repro.db.stats import QueryStats
from repro.geometry.halfspace import Polyhedron

logger = logging.getLogger(__name__)

__all__ = ["PlannedQuery", "QueryPlanner"]

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

#: The engines, in the order a batch runs their member groups: the scan
#: last, so members of an index group whose shared pass died on a
#: storage fault can still join it.
_ENGINES = ("kdtree", "bitmap", "hybrid", "scan")

#: Cost weight of one paged-index node page relative to a data page.
#: Node pages are small, compressed, and usually node-cache resident,
#: so a traversal's index I/O is a light surcharge, not a data read.
_INDEX_PAGE_READ_COST = 0.25


def _rows_for(bitmap, candidates):
    """The plan's candidate rows, if they came from this ``bitmap`` object."""
    if candidates is not None and candidates[0] is bitmap:
        return candidates[1]
    return None


@dataclass
class _Plan:
    """One member's planning outcome, carried to its finalisation.

    ``candidates`` is as from :meth:`QueryPlanner._raw_costs`; a group
    that degrades to the scan sets ``fallback`` / ``reason``.
    """

    engine: str
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
    #: Set by routing layers for answers that must not enter the result
    #: cache (e.g. served by a non-preferred replica during degradation,
    #: whose execution profile another replica's fingerprint must never
    #: inherit).
    no_cache: bool = False


class QueryPlanner:
    """Chooses among kd-tree, scan, bitmap, and hybrid per query.

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
        ``"auto"`` (cost-based choice) or a forced engine out of
        ``kdtree``/``kd``, ``scan``, ``bitmap``, ``hybrid`` for A/B
        runs.  Forcing ``bitmap``/``hybrid`` without a registered
        bitmap index degrades to the baseline choice and annotates the
        result as a fallback.
    """

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
        engine = {"kd": "kdtree"}.get(engine, engine)
        if engine != "auto" and engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self._index = index
        self._db = index.table.database
        self._index_key = f"{index.table.name}.kdtree"
        self._bitmap_key = f"{index.table.name}.bitmap"
        self.crossover = crossover
        self.sample_pages = sample_pages
        self.statistics = statistics
        self.engine = engine
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
        self._calibration: dict[str, float] = {name: 1.0 for name in _ENGINES}
        self._selectivity_bias = 0.0
        self._selectivity_abs_error = 0.0
        self._observations = 0
        #: Optional workload-trace hook (:mod:`repro.tune.trace`): when
        #: set, every executed query is folded into the recorder's ring.
        self.trace_recorder = None
        #: Replica tag stamped on recorded observations (router use).
        self.trace_tag = ""
        self._restore_calibration()
        index.table.database.add_mutation_listener(self._on_catalog_mutation)

    def _restore_calibration(self) -> None:
        """Warm-start cost state from the catalog's persisted snapshot.

        A reattached database carries the calibration its planners
        learned before shutdown; without a snapshot (fresh build, older
        catalog version) the neutral defaults stand.
        """
        loader = getattr(self._db, "planner_calibration", None)
        if not callable(loader):
            return
        snapshot = loader(self._index.table.name)
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

    # -- engine protocol ----------------------------------------------------
    # The query service treats its execution engine as anything with
    # execute(polyhedron, cancel_check) plus these identity properties;
    # the sharded ScatterGatherExecutor implements the same contract.

    @property
    def table_name(self) -> str:
        """Name of the table results come from (cache fingerprinting)."""
        return self.index.table.name

    @property
    def dims(self) -> list[str]:
        """Ordered coordinate column names of the underlying index."""
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

    def _axis_fractions(self, polyhedron: Polyhedron) -> np.ndarray:
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

    def _raw_costs(self, polyhedron: Polyhedron, memberships):
        """Predicted pages decoded per engine, before calibration.

        Returns ``(costs, candidates)``.  ``candidates`` is ``(bitmap
        index, candidate rows)`` when pricing the bitmap engine built
        the exact candidate set, else ``None``: the execution this plan
        is for reuses the rows instead of ANDing the bitmaps again --
        only against that same index object, never a later query or a
        layout a merge swapped in since.

        - ``scan``: every page.
        - ``kdtree``: leaves whose cell survives the per-axis slab
          fractions (each axis contributes ``f_i * L^(1/d) + 1`` of its
          ``L^(1/d)`` splits -- the +1 is the straddling cell), times
          pages per leaf.
        - ``bitmap``: the exact candidate page count.  The candidate
          superset comes from in-memory bitmap ANDs, so before any page
          read the planner already knows which pages it lands on; the
          kd-clustered layout makes that far smaller than one page per
          candidate row.  When nothing constrains the index the fraction
          estimate (nudged by the running selectivity bias) stands in.
        - ``hybrid``: the independence-assumption intersection of the kd
          and bitmap page sets, plus a small constant for the extra
          traversal; never worse than either input.
        """
        index = self.index
        table = index.table
        num_pages = max(1, table.num_pages)
        num_rows = max(1, table.num_rows)
        rows_per_page = max(1, table.rows_per_page)
        costs: dict[str, float] = {"scan": float(num_pages)}

        leaves = max(1, index.tree.num_leaves)
        dim = max(1, len(index.dims))
        per_axis_splits = leaves ** (1.0 / dim)
        leaves_hit = 1.0
        for fraction in self._axis_fractions(polyhedron):
            leaves_hit *= min(per_axis_splits, fraction * per_axis_splits + 1.0)
        leaves_hit = min(float(leaves), leaves_hit)
        pages_per_leaf = max(1.0, num_rows / (leaves * rows_per_page))
        costs["kdtree"] = min(float(num_pages), leaves_hit * pages_per_leaf)
        # The traversal itself reads index node pages.  Discounted
        # relative to data pages -- node pages are served from the
        # tree's node cache on repeat and a traversal's working set is a
        # few pages -- but nonzero, so kd never looks free against scan
        # on a table small enough that the index rivals the data.
        layout = index.tree.layout
        node_pages = min(
            float(layout.num_pages),
            1.0 + 2.0 * leaves_hit / max(1, layout.nodes_per_page),
        )
        costs["kdtree"] += _INDEX_PAGE_READ_COST * node_pages

        bitmap = self.bitmap_index
        if bitmap is None:
            costs["bitmap"] = float("inf")
            costs["hybrid"] = float("inf")
            return costs, None
        candidates = None
        candidate = bitmap.candidate_bitmap(polyhedron, memberships)
        if candidate is None:
            # Nothing constrains the index: fall back to the fraction
            # estimate, corrected by the observed selectivity bias.
            fraction = bitmap.estimate_fraction(polyhedron, memberships)
            if fraction is None:
                fraction = 1.0
            with self._cost_lock:
                bias = self._selectivity_bias
            fraction = min(1.0, max(1.0 / num_rows, fraction + bias))
            costs["bitmap"] = min(float(num_pages), max(1.0, fraction * num_rows))
        else:
            rows = candidate.to_indices()
            candidates = (bitmap, rows)
            candidate_pages = len(np.unique(rows // rows_per_page))
            costs["bitmap"] = min(float(num_pages), max(1.0, float(candidate_pages)))
        hybrid = max(1.0, costs["kdtree"] * costs["bitmap"] / num_pages)
        costs["hybrid"] = min(costs["kdtree"], costs["bitmap"], hybrid) + 2.0
        return costs, candidates

    def _calibrated(self, raw: dict[str, float]) -> dict[str, float]:
        with self._cost_lock:
            calibration = dict(self._calibration)
        return {name: cost * calibration.get(name, 1.0) for name, cost in raw.items()}

    def _choose_engine(
        self, estimate: float, raw: dict[str, float]
    ) -> tuple[str, dict[str, float], str]:
        """Pick the engine; returns ``(engine, calibrated_costs, fallback_reason)``.

        Stage 1 is the paper's crossover rule (kd below, scan above;
        a NaN estimate from a failed probe chooses the scan).  Stage 2
        runs only when a bitmap index exists: the baseline competes
        against the bitmap and hybrid engines on calibrated predicted
        pages, ties going to the earlier entrant (baseline first).
        """
        calibrated = self._calibrated(raw)
        baseline = "kdtree" if estimate <= self.crossover else "scan"
        if self.engine != "auto":
            if self.engine in ("bitmap", "hybrid") and self.bitmap_index is None:
                return (
                    baseline,
                    calibrated,
                    f"forced engine {self.engine!r} unavailable: no bitmap index",
                )
            return self.engine, calibrated, ""
        if self.bitmap_index is None:
            return baseline, calibrated, ""
        best = baseline
        for candidate in ("bitmap", "hybrid"):
            if calibrated[candidate] < calibrated[best]:
                best = candidate
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
            if (
                engine in self._calibration
                and raw_cost is not None
                and np.isfinite(raw_cost)
                and raw_cost > 0
            ):
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
            snapshot = {
                "calibration": dict(self._calibration),
                "selectivity_bias": self._selectivity_bias,
                "selectivity_abs_error": self._selectivity_abs_error,
                "observations": self._observations,
            }
        # Outside the cost lock: hand the catalog the latest snapshot so
        # save_catalog persists learned constants across restarts.
        saver = getattr(self._db, "save_planner_calibration", None)
        if callable(saver):
            saver(self._index.table.name, snapshot)

    def cost_report(self) -> dict:
        """Snapshot of the online calibration state (tests, metrics)."""
        with self._cost_lock:
            return {
                "calibration": dict(self._calibration),
                "selectivity_bias": self._selectivity_bias,
                "selectivity_abs_error": self._selectivity_abs_error,
                "observations": self._observations,
            }

    def predict_cost(self, polyhedron: Polyhedron, memberships=None) -> float:
        """Calibrated predicted pages decoded for this query, no execution.

        The replica router's scoring primitive: the cheapest engine's
        calibrated cost (the bitmap term is the exact in-memory candidate
        page count).  A probe fault degrades to the scan bound -- every
        page -- so a sick replica prices itself out of routing.
        """
        try:
            raw, _ = self._raw_costs(polyhedron, memberships)
        except StorageFault:
            return float(max(1, self.index.table.num_pages))
        finite = [
            cost
            for cost in self._calibrated(raw).values()
            if np.isfinite(cost)
        ]
        if not finite:
            return float(max(1, self.index.table.num_pages))
        return min(finite)

    def _record_trace(self, polyhedron, memberships, planned, wall_s) -> None:
        """Fold an executed query into the attached trace ring, if any.

        Never raises: trace capture is observability, not the query
        path, so a recorder bug must not fail user queries.
        """
        recorder = self.trace_recorder
        if recorder is None:
            return
        try:
            recorder.record(
                self.table_name,
                self.dims,
                polyhedron,
                memberships,
                planned,
                wall_s,
                replica=self.trace_tag,
            )
        except Exception:  # pragma: no cover - defensive
            logger.exception("trace recording failed")

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
            raw, candidates = {"scan": float(self.index.table.num_pages or 1)}, None
        engine, calibrated, forced_reason = self._choose_engine(estimate, raw)
        if forced_reason and not fallback:
            fallback, reason = True, forced_reason
        return _Plan(engine, estimate, probed, raw, calibrated, candidates, fallback, reason)

    def execute(
        self, polyhedron: Polyhedron, cancel_check=None, memberships=None
    ) -> PlannedQuery:
        """Estimate, choose a path, run, and report.

        A batch of one of :meth:`execute_batch`, unwrapped: the member's
        error, if any, is raised here.  ``cancel_check`` is a
        zero-argument callable (or ``None``) run before planning and
        inside the chosen executor's page/node loops; raising from it
        abandons the query cooperatively -- this is how the query
        service enforces per-query deadlines.  ``memberships`` maps
        column names to IN-list value arrays, ANDed with the polyhedron
        on every engine.

        Degradation: a :class:`~repro.db.errors.StorageFault` during the
        selectivity probe forfeits the estimate (the scan path is chosen,
        which needs none); one during an index path (kd, bitmap, hybrid)
        falls back to the full scan.  A fault from the scan itself
        propagates -- there is nothing cheaper left to degrade to.  A
        :class:`~repro.db.errors.StaleLayoutError` re-runs the query
        against the current layout (see :meth:`_retry_when_stale`).
        """
        (member,) = self._retry_when_stale(
            lambda: self._run_members([polyhedron], [cancel_check], [memberships])
        ).members
        if member.error is not None:
            raise member.error
        return member.planned

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

    def execute_batch(
        self, polyhedra, cancel_checks=None, memberships_list=None
    ) -> BatchResult:
        """Plan and run a micro-batch of queries with shared work.

        Members are planned individually (the cached probe makes the
        estimates zero-I/O after the first), then grouped by chosen
        engine: the kd group runs one multi-box traversal
        (:func:`~repro.core.batch.batch_kd_query`), the bitmap / hybrid
        groups one shared candidate-page fetch each, and the scan group
        one shared scan pass -- a batch's members may split across
        engines, every group decoding each needed page once for all of
        its members.

        Isolation matches the batch executors underneath: a member whose
        ``cancel_check`` raises, or whose polyhedron does not match the
        index's dimensionality, is recorded as that member's ``error``
        and its siblings keep going.  A :class:`StorageFault` that kills
        a kd, bitmap or hybrid group's shared pass moves that group's
        members into the scan group, which runs last, flagged as a
        fallback; one that kills the scan pass becomes the error of each
        member in it.

        A :class:`~repro.db.errors.StaleLayoutError` anywhere in the
        batch (a merge retired the layout mid-flight) restarts the whole
        batch against the re-resolved current layout (see
        :meth:`_retry_when_stale`).
        """
        return self._retry_when_stale(
            lambda: self._run_members(polyhedra, cancel_checks, memberships_list)
        )

    def _run_members(self, polyhedra, cancel_checks, memberships_list) -> BatchResult:
        """One planning-and-execution attempt against the current layout."""
        n = len(polyhedra)
        checks = list(cancel_checks) if cancel_checks is not None else [None] * n
        member_filters = (
            list(memberships_list) if memberships_list is not None else [None] * n
        )
        result = BatchResult(
            members=[BatchMemberResult() for _ in range(n)], occupancy=n
        )
        plans: list[_Plan | None] = [None] * n
        groups: dict[str, list[int]] = {name: [] for name in _ENGINES}
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

        for engine in _ENGINES:
            group = groups[engine]
            if not group:
                continue
            started = time.perf_counter()
            try:
                outcomes, counters = self._run_group(
                    engine,
                    [polyhedra[m] for m in group],
                    [checks[m] for m in group],
                    [member_filters[m] for m in group],
                    [plans[m].candidates for m in group],
                )
            except StorageFault as exc:
                if engine == "scan":
                    for m in group:
                        result.members[m].error = exc
                    continue
                for m in group:
                    plans[m].fallback = True
                    plans[m].reason = f"{engine} path failed: {type(exc).__name__}"
                groups["scan"] += group
                continue
            result.pages_decoded += counters["pages_decoded"]
            result.shared_decode_hits += counters["shared_decode_hits"]
            # The shared pass served the whole group at once; attribute an
            # equal share of its wall time to each member's trace entry.
            member_wall = (time.perf_counter() - started) / len(group)
            for m, (rows, stats, error) in zip(group, outcomes):
                if error is not None:
                    result.members[m].error = error
                    continue
                plan = plans[m]
                planned = self._finalize(
                    PlannedQuery(
                        rows=rows,
                        stats=stats,
                        chosen_path=engine,
                        estimated_selectivity=plan.estimate,
                        sampled_pages=plan.probed,
                        fallback=plan.fallback,
                        fallback_reason=plan.reason,
                    ),
                    plan.raw,
                    plan.calibrated,
                )
                result.members[m].planned = planned
                self._record_trace(polyhedra[m], member_filters[m], planned, member_wall)
        return result

    def _run_group(self, engine: str, polyhedra, checks, member_filters, candidates):
        """One engine's shared pass over a member group: ``(outcomes, counters)``."""
        index = self.index
        if engine == "kdtree":
            return batch_kd_query(index, polyhedra, checks, memberships_list=member_filters)
        if engine == "scan":
            return polyhedron_batch_full_scan(
                index.table, index.dims, polyhedra, checks, memberships_list=member_filters
            )
        bitmap = self.bitmap_index
        common = dict(
            memberships_list=member_filters,
            candidate_rows_list=[_rows_for(bitmap, c) for c in candidates],
        )
        if engine == "bitmap":
            return batch_bitmap_query(bitmap, polyhedra, checks, **common)
        return batch_hybrid_query(index, bitmap, polyhedra, checks, **common)
