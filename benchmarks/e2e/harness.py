"""Drive one workload against a real server process and check every answer.

The load generator is this process: one thread per client of the
workload (two at most), each with its own ``ServiceClient`` (one
connection in flight per thread), each replaying its fixed op sequence
closed-loop.  Everything measured here is measured from outside the
program: client-side wall clock, the response bodies, ``/stats``,
``/metrics`` and ``/proc/<pid>/status``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from threading import Barrier, Event

import numpy as np

from benchmarks.e2e.workloads import K, REMOVE_ROWS, Plan, Workload, plan
from repro.errors import ServeError
from repro.index.linear import LinearScanIndex
from repro.metrics.minkowski import EuclideanDistance
from repro.serve.client import ServiceClient
from repro.serve.metrics import parse_exposition

__all__ = ["OUT_DIR", "ServerProcess", "Spans", "run_workload"]

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: Servers launched per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Queries replayed after the last op, and again after crash recovery.
VERIFY_QUERIES = 64
#: The measured ops are cut into this many chunks (see `end_to_end`).
CHUNKS = 10
#: Stages that lie inside a response's ``latency_ms`` (admit and respond
#: happen before the clock starts and after it stops).
IN_LATENCY_STAGES = (
    "cache-lookup", "queue-wait", "batch-form", "engine", "merge",
    "journal-append", "apply", "journal-fsync",
)
STAGES = ("admit",) + IN_LATENCY_STAGES + ("respond",)
TOLERANCE = 1e-9
READ, RANGE, WRITE = ("knn",), ("range",), ("add", "remove")


class Spans:
    """The harness's own trace: one row per call it makes into the system."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name, start, end, parent=None, request_id=None) -> None:
        self.rows.append(
            {"name": name, "start": start, "end": end,
             "parent": parent, "request_id": request_id}
        )

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.rows))


class ServerProcess:
    """One launcher child.  Use as a context manager: every exit path
    (harness exception, Ctrl-C, SIGTERM) sends SIGTERM and waits."""

    def __init__(self, spec: dict, ready_timeout: float = 150.0) -> None:
        env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], ready_timeout)
            line = self.proc.stdout.readline() if ready else b""
            if not line.strip():
                raise RuntimeError(f"server for {spec['root']} reported no port")
            self.port = int(line)
            self.client = ServiceClient(port=self.port, timeout=30.0)
            self.health = self.client.wait_until_ready(timeout=10.0)
        except BaseException:
            self.stop()
            raise
        #: Data generation + index build + ready on /healthz.
        self.setup_s = time.perf_counter() - self.started

    def rss_peak_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, sig: int = signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def _client_loop(
    index: int, port: int, ops: list[tuple], p: Plan, radius: float,
    own_ids: list[int], barrier: Barrier, stop: Event, deadline: float,
    spans: Spans | None,
) -> list[dict]:
    """Replay ``ops`` closed-loop; one record per op, failed or not."""
    client = ServiceClient(port=port, timeout=30.0)
    check_every = p.workload.check_every
    records: list[dict] = []
    barrier.wait()
    for position, (kind, arg) in enumerate(ops):
        record = {"kind": kind, "arg": arg, "ok": False}
        records.append(record)
        start = record["start"] = time.perf_counter()
        if start > deadline or stop.is_set():
            record["end"], record["error"] = start, "workload timeout"
            continue
        try:
            if kind == "knn":
                response = client.query(p.extra[arg], K)
            elif kind == "range":
                response = client.range_query(p.extra[arg], radius)
            elif kind == "add":
                response = client.add(p.extra[arg[0] : arg[1]])
            else:
                response = client.remove(own_ids[:REMOVE_ROWS])
        except (ServeError, OSError) as error:
            record["end"], record["error"] = time.perf_counter(), str(error)
            continue
        record["end"] = time.perf_counter()
        record["ok"] = True
        record["latency_ms"] = response["latency_ms"]
        if kind == "add":
            record["ids"] = response["ids"]
            own_ids.extend(response["ids"])
        elif kind == "remove":
            record["ids"] = response["removed"]
            del own_ids[:REMOVE_ROWS]
        else:
            record["dists"] = response["distance_computations"]
            if position % check_every == 0:
                record["results"] = [
                    (r["image_id"], r["distance"]) for r in response["results"]
                ]
        if spans is not None:
            spans.add(
                f"client.{kind}", start, record["end"],
                parent=f"client-{index}", request_id=response.get("trace_id"),
            )
    return records


def _replay(
    port: int, per_client: list[list[tuple]], p: Plan, radius: float,
    own_ids: list[list[int]], timeout: float, spans: Spans | None,
) -> tuple[list[list[dict]], float]:
    """Run one phase on all clients; returns their records and its start."""
    barrier = Barrier(len(per_client) + 1)
    stop = Event()
    deadline = time.perf_counter() + timeout
    with ThreadPoolExecutor(len(per_client)) as pool:
        try:
            futures = [
                pool.submit(_client_loop, i, port, ops, p, radius, own_ids[i],
                            barrier, stop, deadline, spans)
                for i, ops in enumerate(per_client)
            ]
            barrier.wait()
            start = time.perf_counter()
            records = [future.result() for future in futures]
        except BaseException:
            # Ctrl-C or a harness bug: let the clients finish their op
            # in flight and none after it, so the pool can be joined.
            stop.set()
            barrier.abort()
            raise
    return records, start


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _oracle(ids, rows: np.ndarray) -> LinearScanIndex:
    index = LinearScanIndex(EuclideanDistance())
    index.build(list(ids), rows)
    return index


def _same(kind: str, got: list[tuple], expected: list) -> bool:
    """Ids exactly, distances to 1e-9 (range answers compared by id)."""
    want = [(n.id, n.distance) for n in expected]
    if kind == "range":
        got, want = sorted(got), sorted(want)
    return len(got) == len(want) and all(
        g[0] == w[0] and abs(g[1] - w[1]) <= TOLERANCE for g, w in zip(got, want)
    )


def _check_static(p: Plan, radius: float, oracle, records: list[dict]) -> int:
    """Wrong answers among the sampled responses of a read-only run."""
    wrong = 0
    for kind in ("knn", "range"):
        sampled = [r for r in records if r["kind"] == kind and "results" in r]
        rows = sorted({r["arg"] for r in sampled})
        if not rows:
            continue
        if kind == "range":
            expected = oracle.range_search_batch(p.extra[rows], radius)
        else:
            expected = oracle.knn_search_batch(p.extra[rows], K)
        answers = dict(zip(rows, expected))
        wrong += sum(not _same(kind, r["results"], answers[r["arg"]]) for r in sampled)
    return wrong


class _MutableOracle:
    """Expected answers of ``mixed_rw``, rebuilt from the acked ids.

    Clients only remove rows they added, so the item set is the seed
    rows plus whatever the applied writes of each client left alive.  A
    read that overlaps the other client's writes is correct if it
    matches *any* state the server may have been in while the read was
    in flight.  An answer is the k best of the seed rows' k best and the
    live added rows' k best, each from a ``LinearScanIndex``.
    """

    def __init__(self, p: Plan, base: LinearScanIndex, per_client: list[list[dict]]) -> None:
        if len(per_client) != 2:
            raise ValueError("the mutable oracle is written for two clients")
        self.p = p
        reads = [r for records in per_client for r in records if "results" in r]
        rows = sorted({r["arg"] for r in reads} | set(p.verify.tolist()))
        self.base_answers = dict(zip(rows, base.knn_search_batch(p.extra[rows], K)))
        self.vector_of: dict[int, np.ndarray] = {}
        self.live_after: list[list[list[int]]] = []
        self.write_starts: list[list[float]] = []
        self.write_ends: list[list[float]] = []
        for records in per_client:
            live: list[int] = []
            history = [live]
            writes = [r for r in records if r["kind"] in WRITE and r["ok"]]
            for write in writes:
                if write["kind"] == "add":
                    start, stop = write["arg"]
                    self.vector_of.update(zip(write["ids"], p.extra[start:stop]))
                    live = live + write["ids"]
                else:
                    live = [i for i in live if i not in write["ids"]]
                history.append(live)
            self.live_after.append(history)
            self.write_starts.append([w["start"] for w in writes])
            self.write_ends.append([w["end"] for w in writes])

    def live(self, applied: tuple[int, ...]) -> list[int]:
        """Added ids alive once each client's first ``applied[c]`` writes ran."""
        return [i for c, w in enumerate(applied) for i in self.live_after[c][w]]

    def final(self) -> tuple[int, ...]:
        return tuple(len(history) - 1 for history in self.live_after)

    def answer(self, row: int, applied: tuple[int, ...]) -> list:
        best = list(self.base_answers[row])
        added = self.live(applied)
        if added:
            index = _oracle(added, np.array([self.vector_of[i] for i in added]))
            best += index.knn_search(self.p.extra[row], min(K, len(added)))
        return sorted(best, key=lambda n: (n.distance, n.id))[:K]

    def check_reads(self, per_client: list[list[dict]]) -> int:
        wrong = 0
        for me, records in enumerate(per_client):
            other = 1 - me
            own = 0
            for record in records:
                if record["kind"] in WRITE:
                    own += record["ok"]
                    continue
                if "results" not in record:
                    continue
                # The other client's writes acked before this read began
                # are in; those begun after it ended are not.
                low = bisect_left(self.write_ends[other], record["start"])
                high = bisect_left(self.write_starts[other], record["end"])
                wrong += not any(
                    _same(
                        "knn", record["results"],
                        self.answer(
                            record["arg"], (own, theirs) if me == 0 else (theirs, own)
                        ),
                    )
                    for theirs in range(low, high + 1)
                )
        return wrong


def _verify_pass(client: ServiceClient, p: Plan, expected: list) -> int:
    """Replay the verification queries on one connection; count mismatches."""
    wrong = 0
    for row, answer in zip(p.verify, expected):
        try:
            response = client.query(p.extra[row], K)
        except (ServeError, OSError):
            wrong += 1
            continue
        got = [(r["image_id"], r["distance"]) for r in response["results"]]
        wrong += not _same("knn", got, answer)
    return wrong


# ----------------------------------------------------------------------
# One measured run on one server
# ----------------------------------------------------------------------
def _scrape(client: ServiceClient) -> dict:
    """Flatten ``/stats`` and ``/metrics`` into one ``{name: number}`` dict."""
    flat = {f"stats.{k}": v for k, v in client.stats().items()
            if isinstance(v, (int, float))}
    for family in parse_exposition(client.metrics()).values():
        for name, labels, value in family["samples"]:
            if name.endswith("_bucket"):
                continue
            key = ",".join(labels[k] for k in sorted(labels))
            flat[f"{name}{{{key}}}" if key else name] = value
    return flat


def _tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def _measure(
    p: Plan, radius: float, oracle: LinearScanIndex, spec: dict,
    timeout: float, spans: Spans | None = None,
) -> dict:
    """Launch one server, warm up, replay the measured ops, check, tear down."""
    w = p.workload
    raw: dict = {}
    with ServerProcess(spec) as server:
        raw["setup_s"] = server.setup_s
        if spans is not None:
            spans.add("setup", server.started, server.started + server.setup_s)
        own_ids: list[list[int]] = [[] for _ in range(w.clients)]
        _replay(server.port, p.warmup, p, radius, own_ids, timeout, None)
        before = _scrape(server.client)
        per_client, raw["start"] = _replay(
            server.port, p.measured, p, radius, own_ids, timeout, spans
        )
        after = _scrape(server.client)
        raw["delta"] = {k: after[k] - before.get(k, 0) for k in after}
        records = [r for client_records in per_client for r in client_records]
        raw["records"] = records
        attempted = len(records)
        failed = sum(not r["ok"] for r in records)

        expected = None
        if w.write_share:
            mutable = _MutableOracle(p, oracle, per_client)
            failed += mutable.check_reads(per_client)
            final = mutable.final()
            raw["live_rows"] = w.n + len(mutable.live(final))
            expected = [mutable.answer(row, final) for row in p.verify.tolist()]
            attempted += len(p.verify)
            failed += _verify_pass(server.client, p, expected)
        else:
            raw["live_rows"] = w.n
            failed += _check_static(p, radius, oracle, records)

        raw["rss_peak_mb"] = server.rss_peak_mb()
        root = Path(spec["root"])
        if root.exists():
            raw["disk_bytes"] = _tree_bytes(root)

        if w.journal:
            # Durability leg.  SIGKILL keeps the OS page cache, so this
            # proves replay of everything acknowledged, not loss of
            # unflushed bytes (tests/faults.py covers those).
            server.stop(signal.SIGKILL)
            with ServerProcess(spec) as recovered:
                raw["recovery_s"] = recovered.setup_s
                attempted += len(p.verify) + 1
                failed += recovered.health["images"] != raw["live_rows"]
                failed += _verify_pass(recovered.client, p, expected)
    raw["attempted"], raw["failed"] = attempted, failed
    return raw


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _wall_ms(records: list[dict], kinds: tuple[str, ...]) -> list[float]:
    return [(r["end"] - r["start"]) * 1e3 for r in records if r["kind"] in kinds]


def end_to_end(raw: dict, d: int) -> dict[str, tuple[float, str, int]]:
    """Client-side metrics of one run: ``{name: (value, unit, samples)}``.

    The sandbox's interference is one-sided and comes in stretches of
    seconds: a neighbour can only slow the run down.  So the measured
    ops are cut, in completion order, into ``CHUNKS`` equal chunks, and
    a throughput or median-latency metric is the best-quartile chunk's
    figure (upper quartile of chunk throughputs, lower quartile of chunk
    medians).  A slowdown of the program moves every chunk and shows in
    full; a stretch of interference moves a few chunks and is set aside.
    The p95 figures use all samples at once.
    """
    ok = sorted((r for r in raw["records"] if r["ok"]), key=lambda r: r["end"])
    size = max(1, len(ok) // CHUNKS)
    chunks = [ok[i : i + size] for i in range(0, size * (len(ok) // size), size)]
    starts = [raw["start"]] + [chunk[-1]["end"] for chunk in chunks[:-1]]
    rates = [len(c) / (c[-1]["end"] - start) for c, start in zip(chunks, starts)]

    def best_median(kinds: tuple[str, ...]) -> tuple[float, str, int]:
        medians = [np.median(w) for c in chunks if (w := _wall_ms(c, kinds))]
        return (_percentile(medians, 25), "ms", len(_wall_ms(ok, kinds)))

    def tail(kinds: tuple[str, ...]) -> tuple[float, str, int]:
        walls = _wall_ms(ok, kinds)
        return (_percentile(walls, 95), "ms", len(walls))

    out = {
        "setup_s": (raw["setup_s"], "s", raw.get("setups", 1)),
        "ops_per_s": (_percentile(rates, 75), "1/s", len(ok)),
        "read_p50_ms": best_median(READ),
        "read_p95_ms": tail(READ),
        "rss_peak_mb": (raw["rss_peak_mb"], "MB", 1),
        "failed_share": (raw["failed"] / raw["attempted"], "ratio", raw["attempted"]),
    }
    if _wall_ms(ok, RANGE):
        out["range_p50_ms"] = best_median(RANGE)
    if _wall_ms(ok, WRITE):
        out["write_p50_ms"] = best_median(WRITE)
        out["write_p95_ms"] = tail(WRITE)
    if "recovery_s" in raw:
        out["recovery_s"] = (raw["recovery_s"], "s", 1)
    if "disk_bytes" in raw:
        out["disk_amp"] = (raw["disk_bytes"] / (raw["live_rows"] * d * 8), "ratio", 1)
    return out


def per_layer(raw: dict, d: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, from outside the server."""
    delta = raw["delta"]
    ok = [r for r in raw["records"] if r["ok"]]
    reads = [r for r in ok if r["kind"] in READ]
    writes = [r for r in ok if r["kind"] in WRITE]

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out: dict[str, tuple[float, str]] = {}
    stage_s = {s: delta.get(f"repro_stage_seconds_sum{{{s}}}", 0.0) for s in STAGES}
    for stage in STAGES:
        count = delta.get(f"repro_stage_seconds_count{{{stage}}}", 0.0)
        out[f"stage.{stage}_ms"] = (ratio(stage_s[stage], count) * 1e3, "ms")
    latency_ms = sum(r["latency_ms"] for r in ok)
    in_latency_ms = sum(stage_s[s] for s in IN_LATENCY_STAGES) * 1e3
    out["scheduler.latency_ms"] = (ratio(latency_ms, len(ok)), "ms")
    out["scheduler.unattributed_ms"] = (
        ratio(latency_ms - in_latency_ms, len(ok)), "ms"
    )
    out["scheduler.mean_batch_size"] = (
        ratio(delta.get("repro_batch_size_sum", 0), delta.get("repro_batch_size_count", 0)),
        "count",
    )
    hits, misses = delta["stats.cache_hits"], delta["stats.cache_misses"]
    out["cache.hit_rate"] = (ratio(hits, hits + misses), "ratio")
    out["cache.revalidated_share"] = (
        ratio(delta["stats.cache_revalidations"], hits + misses), "ratio"
    )
    out["cache.invalidated_share"] = (
        ratio(delta["stats.cache_invalidations"], hits + misses), "ratio"
    )
    out["engine.dists_per_query"] = (
        ratio(sum(r["dists"] for r in reads), len(reads)), "count"
    )
    out["wire.overhead_ms"] = (
        _percentile(
            [(r["end"] - r["start"]) * 1e3 - r["latency_ms"] for r in reads], 50
        ),
        "ms",
    )
    fsyncs = delta.get("repro_journal_fsync_seconds_count", 0.0)
    out["journal.fsync_ms"] = (
        ratio(delta.get("repro_journal_fsync_seconds_sum", 0.0), fsyncs) * 1e3, "ms"
    )
    out["journal.fsyncs_per_write"] = (ratio(fsyncs, len(writes)), "ratio")
    user_bytes = 8 * sum(
        len(r["ids"]) * (d if r["kind"] == "add" else 1) for r in writes
    )
    out["journal.bytes_per_user_byte"] = (
        ratio(delta.get("repro_journal{bytes}", 0.0), user_bytes), "ratio"
    )
    pool_hits, pool_misses = delta["stats.pool_hits"], delta["stats.pool_misses"]
    out["pool.hit_rate"] = (ratio(pool_hits, pool_hits + pool_misses), "ratio")
    out["pool.misses_per_query"] = (ratio(pool_misses, len(reads)), "count")
    out["pool.evictions_per_query"] = (
        ratio(delta["stats.pool_evictions"], len(reads)), "count"
    )
    all_stages_ms = sum(stage_s.values()) * 1e3
    client_ms = sum((r["end"] - r["start"]) for r in ok) * 1e3
    out["client.wall_ms"] = (ratio(client_ms, len(ok)), "ms")
    out["client.staged_ms"] = (ratio(all_stages_ms, len(ok)), "ms")
    return out


def run_workload(
    workload: Workload, seed: int, seconds: float, *,
    spans: Spans | None = None, smoke: bool = False,
) -> dict:
    """One run of one workload; ``spans`` given makes it the traced run.

    Untraced: ``SETUP_REPEATS`` servers are launched (``setup_s`` is the
    median; the last one serves the measured ops) with ``trace_depth=0``.
    Traced: a quarter of the ops, once on an untraced and once on a
    ``trace_depth=256`` server, so the tracing overhead is a paired
    figure; the second run supplies the per-layer metrics and the spans.
    """
    traced = spans is not None
    w = workload.smoke() if smoke else workload
    n_ops = 60 if smoke else max(w.clients, round(w.ops_per_second * seconds))
    n_verify = (16 if smoke else VERIFY_QUERIES) if w.write_share else 0
    if traced:
        n_ops = max(w.clients, n_ops // 4)
    timeout = max(20.0, 5.0 * seconds)
    p = plan(w, seed, n_ops, n_verify)
    oracle = _oracle(range(w.n), p.base)
    radius = 0.0
    if w.range_share:
        calibration = oracle.knn_search_batch(p.extra[:32], K)
        radius = float(np.median([answer[-1].distance for answer in calibration]))

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="roots-") as tmp:

        def spec(attempt: str, trace_depth: int) -> dict:
            return {
                "seed": seed, "n": w.n, "d": w.d, "extra": len(p.extra),
                "index": w.index, "backend": w.backend,
                "cache_pages": w.cache_pages, "journal": w.journal,
                "cache_size": w.cache_size, "trace_depth": trace_depth,
                "root": str(Path(tmp) / attempt),
            }

        if not traced:
            setups = []
            for attempt in range(0 if smoke else SETUP_REPEATS - 1):
                with ServerProcess(spec(f"setup-{attempt}", 0)) as server:
                    setups.append(server.setup_s)
            raw = _measure(p, radius, oracle, spec("run", 0), timeout)
            setups.append(raw["setup_s"])
            raw["setup_s"], raw["setups"] = float(np.median(setups)), len(setups)
            return {"raw": raw, "end_to_end": end_to_end(raw, w.d)}

        plain = _measure(p, radius, oracle, spec("untraced", 0), timeout)
        raw = _measure(p, radius, oracle, spec("traced", 256), timeout, spans)
        raw["attempted"] += plain["attempted"]
        raw["failed"] += plain["failed"]
        layers = per_layer(raw, w.d)
        metrics = end_to_end(raw, w.d)
        untraced_rate = end_to_end(plain, w.d)["ops_per_s"][0]
        layers["trace.overhead_pct"] = (
            (untraced_rate / metrics["ops_per_s"][0] - 1.0) * 100.0, "%"
        )
        return {"raw": raw, "end_to_end": metrics, "per_layer": layers}
