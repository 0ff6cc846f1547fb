"""End-to-end benchmark over the HTTP socket — the one entry point.

    python3 benchmarks/e2e/run.py --seed 1                      # all four workloads
    python3 benchmarks/e2e/run.py --seed 1 --workload read_hot  # one workload
    python3 benchmarks/e2e/run.py --seed 1 --trace 1            # the traced run
    python3 benchmarks/e2e/run.py --seed 1 --aa                 # A/A noise floor

Every metric is printed by name with its unit; the last line of each
workload's output is the JSON result the benchmark contract asks for
(with ``--trace 0`` the end-to-end metrics declared in ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones).  Exit code 1 if any op failed or
any answer was wrong.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, here as in the server.
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from benchmarks.e2e.harness import OUT_DIR, Spans, run_workload  # noqa: E402
from benchmarks.e2e.ladder import run_ladder  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics that exist on some workloads only.  The contract
#: wants every bounded metric on every run, so these are listed under
#: `per_layer` in BENCHMARK.json (reading 0 where a workload has none);
#: `--aa` still holds them to these bounds.  The p95 figures are shown
#: by `--aa` without a bound: they do not hold one on a 2-core sandbox.
SCOPED_BOUNDS = {
    "range_p50_ms": 0.25, "write_p50_ms": 0.25, "recovery_s": 0.25,
    "disk_amp": 0.02,
}
UNBOUNDED = ("read_p95_ms", "write_p95_ms")
#: Untraced runs per side of `--aa`; the sides are compared by medians.
AA_REPEATS = 3
#: Counts that may not differ at all between two runs of one seed.
EXACT = {
    "read_cold": ("engine.dists_per_query",),
    "mmap_scan": ("engine.dists_per_query", "disk_amp"),
}
EXACT_ANYWHERE = tuple(
    f"index.{kind}.dists_per_query" for kind in ("linear", "vptree", "antipole", "mtree")
)


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload; returns ``{metric: (value, unit[, samples])}`` plus counts."""
    spans = Spans() if traced else None
    result = run_workload(WORKLOADS[name], seed, seconds, spans=spans, smoke=smoke)
    metrics = dict(result["end_to_end"])
    if traced:
        metrics.update(result["per_layer"])
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="ladder-") as tmp:
            metrics.update(run_ladder(seed, Path(tmp), spans, smoke=smoke))
        spans.write(OUT_DIR / f"trace-{name}.json")
        # Share of the mean client wall that neither a server stage nor
        # the ladder's wire rung accounts for.
        wall = metrics["client.wall_ms"][0]
        named = metrics["client.staged_ms"][0] + metrics["wire.self_ms"][0]
        metrics["ledger.unattributed_pct"] = ((wall - named) / wall * 100.0, "%")
    return {
        "metrics": metrics,
        "attempted": result["raw"]["attempted"],
        "failed": result["raw"]["failed"],
    }


def report(name: str, run: dict, traced: bool, spec: dict) -> None:
    """Print every metric by name and unit, then the contract's JSON line."""
    print(f"== {name} ({'traced, 1/4 ops' if traced else 'untraced'}) ==")
    for metric, (value, unit, *samples) in sorted(run["metrics"].items()):
        note = f"  (n={samples[0]})" if samples else ""
        print(f"{metric:42s} {value:14.6g} {unit}{note}")
    wanted = spec["per_layer" if traced else "end_to_end"]
    line = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {
                "value": run["metrics"].get(m["name"], (0.0,))[0], "unit": m["unit"]
            }
            for m in wanted
        },
    }
    print(json.dumps(line), flush=True)


def aa(seed: int, seconds: float, smoke: bool, spec: dict) -> int:
    """Two sets of runs of the same code; their differences are the noise floor.

    Each side is ``AA_REPEATS`` untraced runs per workload, the sides taking
    turns (A B A B ...), compared by their medians as the benchmark driver
    compares a change with its parent; the traced run is made once per side.
    """
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} | SCOPED_BOUNDS
    untraced = {(side, name): [] for side in "AB" for name in WORKLOADS}
    traced = {}
    for repeat in range(AA_REPEATS):
        for side in "AB":
            for name in WORKLOADS:
                print(f"[{side}{repeat}] {name}", file=sys.stderr, flush=True)
                untraced[side, name].append(run_one(name, seed, seconds, False, smoke))
                if repeat == 0:
                    traced[side, name] = run_one(name, seed, seconds, True, smoke)
    runs = [run for group in (*untraced.values(), traced.values()) for run in group]
    bad = sum(run["failed"] for run in runs)
    table = []

    def row(name: str, metric: str, va: float, vb: float, bound=None) -> bool:
        diff = abs(va - vb) / min(va, vb)
        over = bound is not None and diff > bound
        table.append({"workload": name, "metric": metric, "a": va, "b": vb,
                      "rel_diff": diff, "bound": bound})
        print(f"{name:10s} {metric:24s} {va:12.5g} {vb:12.5g} {diff:8.2%} "
              f"{'' if bound is None else format(bound, '6.2f')}{'  OVER' if over else ''}")
        return over

    print(f"{'workload':10s} {'metric':24s} {'A':>12s} {'B':>12s} {'diff':>8s} {'bound':>6s}")
    for name in WORKLOADS:
        for metric in list(bounds) + list(UNBOUNDED):
            if metric in untraced["A", name][0]["metrics"]:
                va, vb = (
                    float(np.median([r["metrics"][metric][0] for r in untraced[side, name]]))
                    for side in "AB"
                )
                bad += row(name, metric, va, vb, bounds.get(metric))
        ta, tb = (traced[side, name]["metrics"] for side in "AB")
        # Tracing overhead, in points, beside its own A/A difference.
        va, vb = ta["trace.overhead_pct"][0], tb["trace.overhead_pct"][0]
        table.append({"workload": name, "metric": "trace.overhead_pct", "a": va, "b": vb})
        print(f"{name:10s} {'trace.overhead_pct':24s} {va:12.5g} {vb:12.5g} {abs(va - vb):7.2f}pt")
        for metric in EXACT.get(name, ()) + EXACT_ANYWHERE:
            if ta[metric][0] != tb[metric][0]:
                bad += 1
                print(f"{name:10s} {metric:24s} {ta[metric][0]!r} != {tb[metric][0]!r}  NOT EXACT")
    baseline = {
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "seed": seed,
        "seconds": seconds, "repeats": AA_REPEATS,
        "python": platform.python_version(), "numpy": np.__version__,
        "aa": table,
        "untraced": {
            f"{side}/{name}": [{m: v[0] for m, v in r["metrics"].items()} for r in group]
            for (side, name), group in untraced.items()
        },
        "traced": {
            f"{side}/{name}": {m: v[0] for m, v in r["metrics"].items()}
            for (side, name), r in traced.items()
        },
    }
    (OUT_DIR / "aa.json").write_text(json.dumps(baseline, indent=1))
    print(f"wrote {OUT_DIR / 'aa.json'}; {bad} failure(s) or pairing(s) outside their bound")
    return 1 if bad else 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured window the fixed op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced quarter-size run plus the ladder")
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of runs of the same code, compared "
                             "against the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="n=500 and 60 ops per workload (the tier-1 smoke test)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds through the `with` blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.aa:
        return aa(args.seed, args.seconds, args.smoke, spec)
    failed = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        run = run_one(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        report(name, run, bool(args.trace), spec)
        failed += run["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
