"""Workload runners and report formatting shared by the paper figures.

Each ``benchmarks/bench_*.py`` script answers one experiment of the
evaluation reconstructed from PAPER.md (catalogue in
``docs/benchmarks.md``); the harness keeps them uniform: run a batch of
queries against an index, average the cost counters, and print rows
through one ASCII table formatter so ``pytest -s benchmarks/bench_*.py``
output reads like the paper's tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ReproError
from repro.index.base import MetricIndex
from repro.index.stats import SearchStats

__all__ = [
    "QueryWorkloadResult",
    "run_knn_workload",
    "run_range_workload",
    "ascii_table",
    "format_float",
]


@dataclass
class QueryWorkloadResult:
    """Averaged cost of a query workload against one index.

    ``mean_*`` fields average over queries; ``stats`` keeps the raw
    per-query counters for anyone needing distributions.
    """

    n_queries: int
    mean_distance_computations: float
    mean_nodes_visited: float
    mean_nodes_pruned: float
    mean_latency_seconds: float
    mean_result_size: float
    stats: list[SearchStats] = field(default_factory=list)

    @property
    def speedup_vs_scan(self) -> float | None:
        """Filled in by callers that also ran the linear baseline."""
        return getattr(self, "_speedup", None)

    def set_speedup(self, baseline_distance_computations: float) -> None:
        """Record speedup relative to a baseline's distance count."""
        if self.mean_distance_computations > 0:
            self._speedup = baseline_distance_computations / self.mean_distance_computations
        else:
            self._speedup = float("inf")


def run_knn_workload(
    index: MetricIndex, queries: np.ndarray, k: int
) -> QueryWorkloadResult:
    """Run ``knn_search`` for every query row; average the counters."""
    return _run_workload(index, queries, lambda q: index.knn_search(q, k))


def run_range_workload(
    index: MetricIndex, queries: np.ndarray, radius: float
) -> QueryWorkloadResult:
    """Run ``range_search`` for every query row; average the counters."""
    return _run_workload(index, queries, lambda q: index.range_search(q, radius))


def _run_workload(index, queries, run_one) -> QueryWorkloadResult:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[0] == 0:
        raise ReproError("empty query workload")

    all_stats: list[SearchStats] = []
    total_latency = 0.0
    total_results = 0
    for query in queries:
        started = time.perf_counter()
        results = run_one(query)
        total_latency += time.perf_counter() - started
        total_results += len(results)
        all_stats.append(index.last_stats)

    n = queries.shape[0]
    return QueryWorkloadResult(
        n_queries=n,
        mean_distance_computations=float(
            np.mean([s.distance_computations for s in all_stats])
        ),
        mean_nodes_visited=float(np.mean([s.nodes_visited for s in all_stats])),
        mean_nodes_pruned=float(np.mean([s.nodes_pruned for s in all_stats])),
        mean_latency_seconds=total_latency / n,
        mean_result_size=total_results / n,
        stats=all_stats,
    )


def format_float(value: float, *, digits: int = 3) -> str:
    """Compact numeric formatting for table cells."""
    if value != value:  # NaN
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == 0:
        return "0"
    if abs(value) >= 10000 or abs(value) < 0.001:
        return f"{value:.{digits}g}"
    return f"{value:.{digits}f}".rstrip("0").rstrip(".")


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str | None = None
) -> str:
    """Render a padded ASCII table (the benches' output format)."""
    if not headers:
        raise ReproError("table needs headers")
    text_rows = [
        [
            cell if isinstance(cell, str) else format_float(float(cell))
            for cell in row
        ]
        for row in rows
    ]
    for row in text_rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in text_rows), 1)
        if text_rows
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in text_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
