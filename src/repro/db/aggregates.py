"""Aggregate pushdown: COUNT / SUM / MIN / MAX / AVG over scans.

The paper's workflow pushes computation to the data ("code is running in
the same place where data is stored"); the simplest instance is an
aggregate that never materializes the matching rows.  These execute
page-at-a-time, so memory stays O(page) regardless of selectivity --
and they honor the same predicate forms as the scan executors.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.db.expressions import Expr
from repro.db.scan import predicate_from_expression
from repro.db.stats import QueryStats
from repro.db.table import Table

__all__ = ["aggregate_scan", "count_rows"]

_AGGREGATES = {"count", "sum", "min", "max", "avg"}


def aggregate_scan(
    table: Table,
    aggregates: dict[str, tuple[str, str | None]],
    predicate: Expr | Callable | None = None,
) -> tuple[dict[str, float], QueryStats]:
    """One-pass aggregates over (optionally filtered) rows.

    Parameters
    ----------
    aggregates:
        Mapping of output name to ``(function, column)`` where function
        is one of count / sum / min / max / avg; count takes ``None``
        as its column.

    Examples
    --------
    >>> aggregate_scan(t, {"n": ("count", None), "brightest": ("min", "r")})
    """
    if not aggregates:
        raise ValueError("need at least one aggregate")
    for name, (func, column) in aggregates.items():
        if func not in _AGGREGATES:
            raise ValueError(f"unknown aggregate {func!r} for {name!r}")
        if func != "count" and column is None:
            raise ValueError(f"aggregate {name!r} needs a column")
    if isinstance(predicate, Expr):
        predicate = predicate_from_expression(predicate)

    stats = QueryStats()
    count = 0
    sums: dict[str, float] = {}
    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}

    for page in table.scan():
        stats.pages_touched += 1
        stats.rows_examined += page.num_rows
        if predicate is None:
            view = page.columns
            matched = page.num_rows
        else:
            mask = predicate(page.columns)
            matched = int(np.count_nonzero(mask))
            if matched == 0:
                continue
            view = {k: v[mask] for k, v in page.columns.items()}
        count += matched
        for name, (func, column) in aggregates.items():
            if func == "count":
                continue
            values = view[column]
            if func in ("sum", "avg"):
                sums[name] = sums.get(name, 0.0) + float(values.sum())
            if func == "min":
                current = float(values.min())
                mins[name] = min(mins.get(name, current), current)
            if func == "max":
                current = float(values.max())
                maxs[name] = max(maxs.get(name, current), current)

    stats.rows_returned = count
    results: dict[str, float] = {}
    for name, (func, column) in aggregates.items():
        if func == "count":
            results[name] = float(count)
        elif func == "sum":
            results[name] = sums.get(name, 0.0)
        elif func == "avg":
            results[name] = sums.get(name, 0.0) / count if count else float("nan")
        elif func == "min":
            results[name] = mins.get(name, float("nan"))
        elif func == "max":
            results[name] = maxs.get(name, float("nan"))
    return results, stats


def count_rows(
    table: Table, predicate: Expr | Callable | None = None
) -> tuple[int, QueryStats]:
    """``SELECT COUNT(*)`` with an optional WHERE."""
    results, stats = aggregate_scan(table, {"n": ("count", None)}, predicate)
    return int(results["n"]), stats
