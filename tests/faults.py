"""Fault-injection harness for the durability subsystem.

The durability contract (``docs/durability.md``) is *acked ⟹ durable*:
once a mutation's future resolves, the write survives a crash at any
later instant — and a crash at any *earlier* instant loses at most
unacknowledged work.  This module makes "any instant" testable by
counting the filesystem boundaries the journal and snapshot code cross
(:class:`CountingFS`) and then killing the process — by exception
(:class:`FaultFS` in ``raise`` mode, for exhaustive in-process sweeps)
or for real (``exit`` mode: ``os._exit(137)``, indistinguishable from
``kill -9`` to the recovering process) — at exactly the Nth boundary
(:class:`FaultFS`).

A *boundary* is one call into the injectable filesystem shim
(``repro.db.fsutil.FileSystem``): ``write``, ``fsync``, ``replace``
(atomic rename), or ``fsync_dir``.  Every durable byte the subsystem
ever writes passes through one of those four methods, so sweeping the
crash point across all of them covers torn journal appends, missed
fsyncs, half-finished snapshot staging, and manifest flips.

``python -m tests.faults`` (see ``main``) runs one *child workload* for
the subprocess crash suite: open a durable root, apply a scripted
mutation sequence, print an ``ACK <seq>`` line (flushed) after each
acknowledged future, and die at the injected boundary.  The parent
(``tests/test_crash_faults.py``) collects the flushed ACKs — the only
writes the contract protects — recovers the root, and compares against
an oracle database that applied exactly the acknowledged prefix.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.db.fsutil import FileSystem

#: The boundary vocabulary, in the order FileSystem exposes it.
BOUNDARIES = ("write", "fsync", "replace", "fsync_dir")


class InjectedCrash(BaseException):
    """The simulated power cut.

    Deliberately a ``BaseException``: crash-consistency code must not
    be able to ``except Exception`` its way past a power failure, the
    way it legitimately may for an I/O *error*.
    """


class CountingFS(FileSystem):
    """A pass-through filesystem that counts every boundary crossed.

    A calibration run with this shim tells the sweep how many crash
    points a workload has; :class:`FaultFS` then targets each one.
    """

    def __init__(self) -> None:
        self.calls: list[str] = []

    @property
    def count(self) -> int:
        return len(self.calls)

    def _record(self, kind: str) -> None:
        self.calls.append(kind)

    def write(self, file, data) -> None:  # type: ignore[override]
        self._record("write")
        super().write(file, data)

    def fsync(self, file) -> None:  # type: ignore[override]
        self._record("fsync")
        super().fsync(file)

    def replace(self, src, dst) -> None:  # type: ignore[override]
        self._record("replace")
        super().replace(src, dst)

    def fsync_dir(self, path) -> None:  # type: ignore[override]
        self._record("fsync_dir")
        super().fsync_dir(path)


class FaultFS(CountingFS):
    """Crash *before* the ``crash_at``-th boundary executes.

    Crashing before (not after) the call models the strictest failure:
    the data the caller was about to make durable is not.  Everything
    up to the boundary went through the real filesystem, so the on-disk
    state the recoverer sees is exactly what a power cut at that
    instant would leave (modulo kernel-page-cache effects, which the
    subprocess ``exit`` mode inherits honestly and the fsync discipline
    is designed for).

    Parameters
    ----------
    crash_at:
        0-based index of the boundary to die at (as counted by a
        :class:`CountingFS` calibration run of the same workload).
    mode:
        ``'raise'`` throws :class:`InjectedCrash` — the in-process
        sweep catches it and recovers from disk within the same test.
        ``'exit'`` calls ``os._exit(137)`` — no atexit handlers, no
        ``finally`` blocks, no flushing: the honest kill -9.
    """

    def __init__(self, crash_at: int, mode: str = "raise") -> None:
        super().__init__()
        if mode not in ("raise", "exit"):
            raise ValueError(f"unknown fault mode {mode!r}")
        self.crash_at = int(crash_at)
        self.mode = mode

    def _record(self, kind: str) -> None:
        if self.count == self.crash_at:
            if self.mode == "exit":
                import os

                os._exit(137)
            raise InjectedCrash(
                f"injected crash at boundary #{self.crash_at} ({kind})"
            )
        super()._record(kind)


# ---------------------------------------------------------------------------
# Shared workload pieces (in-process sweep + subprocess child)
# ---------------------------------------------------------------------------
def make_schema(dim: int = 6):
    """The tiny single-feature schema every fault test shares."""
    from repro.features.base import PresetSignature
    from repro.features.pipeline import FeatureSchema

    return FeatureSchema([PresetSignature(dim)])


def seed_database(
    dim: int = 6,
    n: int = 12,
    seed: int = 7,
    *,
    backend=None,
    index_factory=None,
):
    """A small deterministic database to snapshot before the crash run.

    ``backend``/``index_factory`` configure the storage backend and
    index family; :func:`repro.db.recovery.open_serving_root` carries
    both into the recovered database, so the mmap fault sweep seeds
    here once and the whole durable root runs on the bounded backend.
    """
    from repro.db.database import ImageDatabase

    rng = np.random.default_rng(seed)
    db = ImageDatabase(make_schema(dim), index_factory=index_factory, backend=backend)
    db.add_vectors(rng.random((n, dim)))
    return db


def workload_steps(dim: int = 6, seed: int = 21) -> list[tuple]:
    """The scripted mutation sequence, deterministic across processes.

    Returns ``('add', matrix)`` / ``('remove', [ids])`` steps.  Removed
    ids are expressed relative to the seeded database (ids 0..n-1) and
    the adds that precede the remove, so parent, child, and oracle all
    agree on them without communicating.
    """
    rng = np.random.default_rng(seed)
    return [
        ("add", rng.random((3, dim))),
        ("add", rng.random((1, dim))),
        ("remove", [1, 12]),  # one seeded id, one id added above
        ("add", rng.random((2, dim))),
        ("remove", [14]),
        ("add", rng.random((4, dim))),
    ]


def apply_steps_directly(db, steps) -> None:
    """Apply a prefix of the workload straight to a database (the oracle)."""
    for kind, payload in steps:
        if kind == "add":
            db.add_vectors(payload)
        else:
            db.remove(payload)


def assert_states_match(recovered, oracle, dim: int = 6, seed: int = 99) -> None:
    """Recovered state must be indistinguishable from the oracle.

    Checks the catalog id set, every stored vector bit-for-bit, and —
    the acceptance criterion — that a battery of exact k-NN queries
    returns bit-identical (id, distance) rankings.  Query results are
    set-determined (top-k by ``(distance, id)``), so this holds no
    matter how the recovered database was rebuilt.
    """
    feature = recovered.schema.names[0]
    assert set(recovered.catalog.ids) == set(oracle.catalog.ids)
    for image_id in oracle.catalog.ids:
        mine = recovered.vector_of(feature, image_id)
        theirs = oracle.vector_of(feature, image_id)
        assert mine.tobytes() == theirs.tobytes(), f"vector {image_id} differs"
    rng = np.random.default_rng(seed)
    k = min(5, len(oracle))
    for query in rng.random((8, dim)):
        got = recovered.query(query, k=k, feature=feature)
        want = oracle.query(query, k=k, feature=feature)
        assert [(r.image_id, r.distance) for r in got] == [
            (r.image_id, r.distance) for r in want
        ]


# ---------------------------------------------------------------------------
# Subprocess child mode (python -m tests.faults ROOT CRASH_AT [BACKEND])
# ---------------------------------------------------------------------------
def _child(root: str, crash_at: int, backend: str | None = None) -> int:
    """Run the scripted workload against ``root``, dying at ``crash_at``.

    Prints one flushed ``ACK <step-index>`` line per acknowledged
    mutation *before* the next step is submitted, so the parent's view
    of stdout is exactly the set of futures that resolved before the
    crash.  ``crash_at < 0`` disables injection (the oracle/calibration
    run); the process then prints ``DONE <n-boundaries>`` and exits 0.

    With a ``backend`` spec (e.g. ``mmap:DIR``) the database runs its
    index cores on that storage backend with a linear-scan index built
    *before* the mutation stream, so every add/remove also crosses the
    backend's own write boundaries (page writes, header rewrite, flush)
    — the sweep then covers the mmap write path, not just the journal.
    """
    from pathlib import Path

    from repro.db.recovery import open_serving_root
    from repro.serve.scheduler import QueryScheduler

    fs: CountingFS
    fs = CountingFS() if crash_at < 0 else FaultFS(crash_at, mode="exit")
    backend_factory = None
    index_factory = None
    if backend is not None:
        from repro.db.backend import resolve_backend_factory
        from repro.index.linear import LinearScanIndex

        # The backend writes through the same injected filesystem as the
        # journal, so its page/header/flush calls join the boundary count.
        backend_factory = resolve_backend_factory(backend, fs=fs)
        index_factory = LinearScanIndex
    db, journal, _report = open_serving_root(
        Path(root),
        seed_database(backend=backend_factory, index_factory=index_factory),
        fs=fs,
    )
    if backend is not None:
        # Build the cores up front: the scripted mutations must hit the
        # backend's append/take path, not a lazy rebuild at query time.
        db.build_indexes()
    scheduler = QueryScheduler(
        db, journal=journal, max_wait_ms=0.0, cache_size=0
    )
    for index, (kind, payload) in enumerate(workload_steps()):
        if kind == "add":
            future = scheduler.submit_add(payload)
        else:
            future = scheduler.submit_remove(payload)
        future.result(timeout=30)
        # Flushed before the next submission: if this line reached the
        # parent, the mutation was acknowledged and must survive.
        print(f"ACK {index}", flush=True)
    scheduler.close()
    print(f"DONE {fs.count}", flush=True)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(
            "usage: python -m tests.faults ROOT CRASH_AT [BACKEND]",
            file=sys.stderr,
        )
        return 2
    backend = argv[2] if len(argv) == 3 else None
    return _child(argv[0], int(argv[1]), backend)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
