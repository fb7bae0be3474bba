"""Concurrent query service: the serving layer over the spatial indexes.

The paper's indexes exist to serve the SkyServer's multi-user traffic
(§2, Figure 2).  This package is that serving layer, in-process:

* :mod:`~repro.service.session` -- client sessions with per-session stats;
* :mod:`~repro.service.admission` -- bounded admission queue with
  explicit backpressure;
* :mod:`~repro.service.executor` -- the worker pool, per-query deadlines
  with cooperative cancellation, and the :class:`QueryService` facade;
* :mod:`~repro.service.result_cache` -- fingerprint-keyed LRU of
  completed results, invalidated on catalog mutation;
* :mod:`~repro.service.metrics` -- per-query and service-level metrics
  built on the engine's I/O counters;
* :mod:`~repro.service.replay` -- the Figure 2 workload driver.
"""

from repro.service.admission import AdmissionQueue
from repro.service.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    QueryFault,
    ServiceClosed,
    ServiceError,
)
from repro.service.executor import Deadline, QueryService, QueryTicket
from repro.service.metrics import MetricsRegistry, QueryMetrics
from repro.service.replay import ReplayReport, replay_workload, rows_equal, run_serial
from repro.service.result_cache import ResultCache, query_fingerprint
from repro.service.session import Session, SessionManager, SessionStats

__all__ = [
    "AdmissionQueue",
    "AdmissionRejected",
    "Deadline",
    "DeadlineExceeded",
    "MetricsRegistry",
    "QueryFault",
    "QueryMetrics",
    "QueryService",
    "QueryTicket",
    "ReplayReport",
    "ResultCache",
    "ServiceClosed",
    "ServiceError",
    "Session",
    "SessionManager",
    "SessionStats",
    "query_fingerprint",
    "replay_workload",
    "rows_equal",
    "run_serial",
]
