"""The four workloads: what the server holds and what the clients send.

A workload is a server configuration plus a fixed, seed-generated
operation sequence per client.  Op *counts* are fixed (``ops_per_second
x --seconds``), not durations, so the work — and the paper's distance
counts — repeat exactly for a given seed and window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.eval.datasets import gaussian_clusters

__all__ = ["K", "WORKLOADS", "Plan", "Workload", "dataset", "plan"]

K = 10
#: Share of the measured op count replayed first, untimed.
WARMUP_SHARE = 0.05
#: Rows per ``add`` and per ``remove`` on ``mixed_rw``.
ADD_ROWS, REMOVE_ROWS = 8, 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    d: int
    index: str  # "vptree" | "linear"
    #: Closed-loop client threads, each waiting for its reply (nproc = 2
    #: here).  The engine-bound workloads use one: with two, whether the
    #: second request joins the first one's batch depends on the client's
    #: turnaround beating `max_wait_ms`, both outcomes sustain themselves,
    #: and throughput flips between ~20 and ~30 ops/s with machine speed.
    clients: int = 2
    backend: str = "memory"  # "memory" | "mmap"
    cache_pages: int = 8
    journal: bool = False
    cache_size: int = 1024  # the `repro serve` default; 0 = result cache off
    #: Measured ops per second of --seconds, calibrated at the seed
    #: commit so the measured window lasts about --seconds there.
    ops_per_second: float = 1.0
    pool: int = 0  # queries are drawn from this many vectors; 0 = all distinct
    range_share: float = 0.0
    write_share: float = 0.0
    check_every: int = 10  # the oracle checks every Nth response (1 = all)

    def smoke(self) -> "Workload":
        """The same shape at n=500 for the tier-1 smoke test."""
        return replace(self, n=500, cache_pages=min(self.cache_pages, 2))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read_cold",
            "n=200k VP-tree, distinct k-NN + range queries: engine-bound, result cache never hits",
            n=200_000, d=16, index="vptree", clients=1,
            ops_per_second=28.0, range_share=0.2,
        ),
        Workload(
            "read_hot",
            "n=2k, 32 repeated queries: >=99% cache hits, so client + HTTP + cache do all the work",
            n=2_000, d=64, index="vptree",
            ops_per_second=950.0, pool=32, check_every=1,
        ),
        Workload(
            "mixed_rw",
            "n=20k with fsynced journal, 80% k-NN / 20% add+remove: write barriers, cache revalidation, recovery",
            n=20_000, d=16, index="vptree", journal=True,
            ops_per_second=300.0, pool=256, write_share=0.2,
        ),
        Workload(
            "mmap_scan",
            "n=100k linear scan on the mmap backend with a 4%-of-data buffer pool: paging + kernel, no tree",
            n=100_000, d=16, index="linear", clients=1, backend="mmap",
            cache_pages=64, cache_size=0, ops_per_second=30.0,
        ),
    )
}


def dataset(seed: int, n: int, d: int, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` database rows and ``extra`` more rows of the same mixture.

    One draw, split: the extra rows (queries, rows added later) share
    the cluster centres with the database but come from a later stretch
    of the seed's stream.  The launcher calls this with the same
    arguments to hold exactly the rows the oracle expects.
    """
    rows, _ = gaussian_clusters(
        n + extra, d, n_clusters=16, cluster_std=0.05, seed=seed
    )
    return rows[:n], rows[n:]


@dataclass
class Plan:
    """Everything one run sends, fixed before the server starts."""

    workload: Workload
    base: np.ndarray  # the database: ids 0..n-1
    extra: np.ndarray  # query vectors, then rows for `add`
    #: Per client: ops as ``(kind, arg)``; ``knn``/``range`` carry a row
    #: of ``extra``, ``add`` a ``(start, stop)`` slice of it, ``remove``
    #: nothing (the client removes its own oldest rows).
    warmup: list[list[tuple]]
    measured: list[list[tuple]]
    verify: np.ndarray  # rows of `extra` queried after the last op


def plan(workload: Workload, seed: int, n_ops: int, n_verify: int = 0) -> Plan:
    """Build the op sequences for ``n_ops`` measured ops over all clients."""
    w = workload
    per_client = max(1, n_ops // w.clients)
    n_warm = max(1, round(per_client * WARMUP_SHARE))
    n_writes = round(per_client * w.write_share)
    n_ranges = round(per_client * w.range_share)
    n_adds = (n_writes + 1) // 2
    # Layout of `extra`: query vectors, rows the clients add, then the
    # verification queries.
    n_queries = w.pool or w.clients * (per_client + n_warm)
    add_rows = w.clients * n_adds * ADD_ROWS
    base, extra = dataset(seed, w.n, w.d, n_queries + add_rows + n_verify)

    rng = np.random.default_rng([seed, 1])
    warmup: list[list[tuple]] = []
    measured: list[list[tuple]] = []
    next_query = 0
    next_add = n_queries
    for client in range(w.clients):
        # Writes and range queries are spread evenly through the k-NN
        # stream (the clients half a period apart), so the mix a client
        # sends is the same in every stretch of the run and for every seed.
        special = ["write"] * n_writes + ["range"] * n_ranges
        kinds = np.full(per_client, "knn", dtype=object)
        if special:
            period = per_client / len(special)
            slots = (np.arange(len(special)) + client / w.clients) * period
            kinds[slots.astype(int)] = special
        ops: list[tuple] = []
        n_written = 0
        for kind in ["knn"] * n_warm + list(kinds):
            if kind != "write":
                if w.pool:
                    row = int(rng.integers(w.pool))
                else:
                    row, next_query = next_query, next_query + 1
                ops.append((str(kind), row))
            elif n_written % 2 == 0:
                ops.append(("add", (next_add, next_add + ADD_ROWS)))
                next_add += ADD_ROWS
                n_written += 1
            else:
                ops.append(("remove", None))
                n_written += 1
        warmup.append(ops[:n_warm])
        measured.append(ops[n_warm:])
    verify = np.arange(len(extra) - n_verify, len(extra))
    return Plan(w, base, extra, warmup, measured, verify)
