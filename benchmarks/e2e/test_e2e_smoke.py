"""Tier-1 smoke test of the end-to-end benchmark (n=500, 60 ops per workload).

Runs the real entry point as the benchmark driver does — a subprocess
per invocation, a server process per workload — and pins the contract:
the names printed are exactly the names ``BENCHMARK.json`` declares,
nothing fails, and no server process or temp root outlives the run.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> list[dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def _check(result: dict, section: str) -> None:
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))


def _assert_nothing_left_behind() -> None:
    launcher = str(HERE / "server.py")
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert launcher not in cmdline.read_bytes().decode(errors="replace")
        except OSError:
            pass  # the process ended while we looked
    out = HERE / "out"
    assert not [p for p in out.iterdir() if p.is_dir()], "temp roots left in out/"


def test_declared_names_are_unique_and_well_formed():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert DECLARED["paths"] == ["benchmarks/e2e"]


def test_all_workloads_untraced():
    results = _run()
    assert len(results) == len(DECLARED["workloads"])
    for result in results:
        _check(result, "end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())
    _assert_nothing_left_behind()


def test_traced_run_emits_every_per_layer_metric():
    (result,) = _run("--workload", "mixed_rw", "--trace", "1")
    _check(result, "per_layer")
    metrics = result["metrics"]
    # The durable workload exercises the journal and not the buffer pool.
    assert metrics["journal.fsyncs_per_write"]["value"] > 0
    assert metrics["recovery_s"]["value"] > 0
    assert metrics["pool.misses_per_query"]["value"] == 0
    assert (HERE / "out" / "trace-mixed_rw.json").exists()
    _assert_nothing_left_behind()
