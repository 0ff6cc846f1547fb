"""Tests for workload runners and table formatting."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError
from repro.eval.harness import (
    QueryWorkloadResult,
    ascii_table,
    format_float,
    run_knn_workload,
    run_range_workload,
)
from repro.index.linear import LinearScanIndex
from repro.index.vptree import VPTree
from repro.metrics.minkowski import EuclideanDistance


@pytest.fixture
def index_and_queries(rng):
    vectors = rng.random((100, 3))
    index = LinearScanIndex(EuclideanDistance()).build(list(range(100)), vectors)
    queries = rng.random((10, 3))
    return index, queries


class TestWorkloadRunners:
    def test_knn_workload_averages(self, index_and_queries):
        index, queries = index_and_queries
        result = run_knn_workload(index, queries, k=5)
        assert result.n_queries == 10
        assert result.mean_distance_computations == 100.0  # linear scan
        assert result.mean_result_size == 5.0
        assert result.mean_latency_seconds > 0.0
        assert len(result.stats) == 10

    def test_range_workload(self, index_and_queries):
        index, queries = index_and_queries
        result = run_range_workload(index, queries, radius=2.0)
        assert result.mean_result_size == 100.0  # everything within 2.0

    def test_single_query_accepted_as_1d(self, index_and_queries, rng):
        index, _ = index_and_queries
        result = run_knn_workload(index, rng.random(3), k=3)
        assert result.n_queries == 1

    def test_empty_workload_rejected(self, index_and_queries):
        index, _ = index_and_queries
        with pytest.raises(ReproError, match="empty"):
            run_knn_workload(index, np.empty((0, 3)), k=1)

    def test_speedup_helper(self, rng):
        vectors = rng.random((200, 2))
        queries = rng.random((5, 2))
        linear = LinearScanIndex(EuclideanDistance()).build(list(range(200)), vectors)
        tree = VPTree(EuclideanDistance()).build(list(range(200)), vectors)
        base = run_knn_workload(linear, queries, k=5)
        result = run_knn_workload(tree, queries, k=5)
        result.set_speedup(base.mean_distance_computations)
        assert result.speedup_vs_scan is not None
        assert result.speedup_vs_scan > 1.0

    def test_speedup_none_until_set(self, index_and_queries):
        index, queries = index_and_queries
        result = run_knn_workload(index, queries, k=1)
        assert result.speedup_vs_scan is None


class TestFormatting:
    def test_format_float_cases(self):
        assert format_float(0.0) == "0"
        assert format_float(1.5) == "1.5"
        assert format_float(123456.0) == "1.23e+05"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("nan")) == "nan"
        assert format_float(0.000001) == "1e-06"

    def test_ascii_table_shape(self):
        table = ascii_table(
            ["name", "value"], [["a", 1.0], ["b", 2.5]], title="demo"
        )
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert "-+-" in lines[2]
        assert len(lines) == 5

    def test_ascii_table_alignment(self):
        table = ascii_table(["x"], [["long-cell-content"]])
        header, separator, row = table.splitlines()
        assert len(header) == len(row)

    def test_ascii_table_validates(self):
        with pytest.raises(ReproError):
            ascii_table([], [])
        with pytest.raises(ReproError, match="cells"):
            ascii_table(["a", "b"], [["only-one"]])

    def test_ascii_table_empty_rows(self):
        table = ascii_table(["a", "b"], [])
        assert "a" in table


def test_paper_figures_count_and_never_time():
    """The figure scripts this harness serves assert counts and quality;
    the clock belongs to ``benchmarks/e2e/`` alone.  A ``benchmark``
    fixture, a ``time`` import or a ``BENCH_*.json`` beside them means a
    timing loop has drifted back in."""
    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    scripts = sorted(benchmarks.glob("bench_*.py"))
    assert len(scripts) >= 19
    assert not list(benchmarks.glob("BENCH_*.json"))
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                arguments = [arg.arg for arg in node.args.args]
                assert "benchmark" not in arguments, f"{script.name}::{node.name}"
            elif isinstance(node, ast.Import):
                assert "time" not in [alias.name for alias in node.names], script.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "time", script.name
