"""A small paged column-store database engine.

This package is the substrate that stands in for MS SQL Server 2005 in the
paper.  The paper's central performance argument is about **disk I/O**:
spatial indexes win because they cluster rows so a query touches only the
pages that contribute output, while a full scan touches every page.  To
reproduce those shapes faithfully we need an engine where "pages touched"
is a first-class, measurable quantity:

* :mod:`repro.db.pages` -- the page abstraction (a row-group of all
  columns for a contiguous row range) and its binary serialization.
* :mod:`repro.db.storage` -- page stores: in-memory (fast, counted) and
  file-backed (real disk round trips), both reporting
  :class:`repro.db.stats.IOStats`.
* :mod:`repro.db.buffer_pool` -- an LRU buffer pool with a configurable
  page budget, the analog of the server's RAM (the paper's 8 GB box).
* :mod:`repro.db.table` -- typed, immutable tables with an optional
  clustered order (the paper clusters the magnitude table on kd-leaf id /
  Voronoi cell id / (Layer, ContainedBy)).
* :mod:`repro.db.expressions` -- predicate ASTs evaluated page-at-a-time
  with numpy, plus extraction of linear inequalities into
  :class:`repro.geometry.Polyhedron` queries.
* :mod:`repro.db.fetch` -- the fetch kernel: given an engine's candidate
  segments it plans the pages (zone-map pruning, coalesced read-ahead),
  reads each once, and runs the residual filter once per chunk of
  gathered rows, with merge-on-read of the delta tier.
* :mod:`repro.db.scan` -- full-scan and range-scan executors: the
  index-free candidates ("every row of these pages") over that kernel.
* :mod:`repro.db.zonemap` -- per-page min/max synopses that let scans
  skip pages before any read or decode.
* :mod:`repro.db.procedures` -- the stored-procedure registry (the CLR
  stored procedures of the paper become registered Python callables that
  run "inside" the engine, next to the data).
"""

from repro.db.stats import IOStats
from repro.db.errors import CorruptPageError, StorageFault, TransientIOError, WriteFault
from repro.db.pages import Page, PageCodec
from repro.db.storage import FileStorage, MemoryStorage, Storage
from repro.db.faults import FaultInjector, FaultyStorage, RetryPolicy, call_with_retries
from repro.db.buffer_pool import BufferPool
from repro.db.zonemap import ZoneMap, ZonePruner
from repro.db.table import ColumnSpec, Table
from repro.db.catalog import Database, DatabaseOptions
from repro.db.expressions import (
    Col,
    Const,
    Expr,
    InList,
    LinearExtractionError,
    expression_to_polyhedron,
    expression_to_query,
)
from repro.db.scan import AUTO_TOMBSTONES, batch_full_scan, full_scan, range_scan
from repro.db.aggregates import aggregate_scan, count_rows
from repro.db.procedures import ProcedureRegistry, procedure
from repro.db.recovery import LoggedStorage, LogRecord
from repro.db.persistence import attach_database, save_catalog
from repro.db.projections import ProjectionSet, create_projection
from repro.db.histogram import ColumnHistogram, HistogramStatistics
from repro.db.sqlparse import SqlParseError, parse_where

__all__ = [
    "IOStats",
    "StorageFault",
    "TransientIOError",
    "CorruptPageError",
    "WriteFault",
    "Page",
    "PageCodec",
    "Storage",
    "MemoryStorage",
    "FileStorage",
    "FaultInjector",
    "FaultyStorage",
    "RetryPolicy",
    "call_with_retries",
    "BufferPool",
    "ZoneMap",
    "ZonePruner",
    "ColumnSpec",
    "Table",
    "Database",
    "DatabaseOptions",
    "Expr",
    "Col",
    "Const",
    "LinearExtractionError",
    "expression_to_polyhedron",
    "expression_to_query",
    "InList",
    "AUTO_TOMBSTONES",
    "batch_full_scan",
    "full_scan",
    "range_scan",
    "aggregate_scan",
    "count_rows",
    "ProcedureRegistry",
    "procedure",
    "LoggedStorage",
    "LogRecord",
    "save_catalog",
    "attach_database",
    "create_projection",
    "ProjectionSet",
    "ColumnHistogram",
    "HistogramStatistics",
    "parse_where",
    "SqlParseError",
]
