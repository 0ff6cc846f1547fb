"""Crash-recovery suite: kill the process at every durability boundary.

The acceptance criterion of the durability subsystem: a crash at *any*
filesystem boundary — mid journal append, between fsync and rename,
half-way through snapshot staging — loses **zero acknowledged writes**,
and post-recovery query results are bit-identical to a never-crashed
oracle that applied the same acknowledged mutations.

Three layers of escalating realism:

1. **In-process exhaustive sweep** — :class:`tests.faults.FaultFS` in
   ``raise`` mode throws :class:`InjectedCrash` (a ``BaseException``)
   before the Nth boundary, for every N the workload crosses.  Fast
   enough to sweep every single boundary in the default test run.
2. **Subprocess kill -9** — the same scripted workload in a child
   process (``python -m tests.faults``) that ``os._exit(137)``'s at the
   injected boundary: no ``finally`` blocks, no buffered-file flushing,
   honest page-cache state.  Sampled boundaries by default; set
   ``REPRO_FAULTS_EXHAUSTIVE=1`` to sweep all of them.
3. **Journaled scheduler end-to-end** — the full serving stack
   (scheduler group commit, save barriers, HTTP front end, graceful
   shutdown) against a durable root, recovered and compared after.

Contract checked everywhere: recovered state == oracle(first M steps)
for some M ≥ number of acknowledged steps (a durable-but-unacked
*suffix* is acceptable — log-before-ack means durability can only run
ahead of acknowledgement, never behind).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.db.fsutil import FileSystem
from repro.db.recovery import open_serving_root, recover
from repro.errors import ServeError, ShuttingDownError
from repro.serve.cache import MutationDeltaLog, ResultCache
from repro.serve.ledger import ServiceLedger
from repro.serve.scheduler import QueryScheduler
from repro.serve.ticket import Mutation
from repro.serve.worker import BatchWorker

from tests import faults
from tests.faults import CountingFS, FaultFS, InjectedCrash

EXHAUSTIVE = os.environ.get("REPRO_FAULTS_EXHAUSTIVE") == "1"


def _states_match(recovered, oracle) -> bool:
    try:
        faults.assert_states_match(recovered, oracle)
    except AssertionError:
        return False
    return True


_ORACLES: dict[int, object] = {}


def _oracle(n_steps: int):
    """A never-crashed database that applied the first ``n_steps`` steps.

    Cached per step count: the sweep compares against the same oracles
    hundreds of times, and comparisons only read.
    """
    if n_steps not in _ORACLES:
        db = faults.seed_database()
        faults.apply_steps_directly(db, faults.workload_steps()[:n_steps])
        _ORACLES[n_steps] = db
    return _ORACLES[n_steps]


def _assert_acked_prefix_survived(root, acked: int) -> None:
    """The durability contract, as an assertion.

    The recovered root must equal the oracle at *some* step count
    ``M >= acked`` (an unacked suffix may have reached the disk before
    the crash; an acked prefix must have).  A root killed before its
    first snapshot may legitimately be empty — but only if nothing was
    acknowledged yet.
    """
    recovered, _report = recover(root, faults.make_schema())
    if acked == 0 and len(recovered) == 0:
        return
    n_steps = len(faults.workload_steps())
    for m in range(acked, n_steps + 1):
        if _states_match(recovered, _oracle(m)):
            return
    raise AssertionError(
        f"recovered state ({len(recovered)} items) matches no oracle with "
        f">= {acked} acknowledged steps applied — an acknowledged write "
        f"was lost or corrupted"
    )


def _run_workload(root: Path, fs: FileSystem, backend: str | None = None) -> int:
    """Drive the scripted workload through the serving write path.

    Each step is one mutation applied by the scheduler's
    :class:`~repro.serve.worker.BatchWorker` — journal append + apply —
    followed by its group fsync, called on this thread.  Returns how
    many steps were *acknowledged* (the future resolved).  An
    :class:`InjectedCrash` propagates to the caller, exactly like a
    power cut would end the process.

    With a ``backend`` spec the index cores live on that storage
    backend (writing through the same injected ``fs``) and linear-scan
    indexes are built before the mutation stream, so the sweep also
    crosses the backend's page-write/header/flush boundaries.
    """
    backend_factory = None
    index_factory = None
    if backend is not None:
        from repro.db.backend import resolve_backend_factory
        from repro.index.linear import LinearScanIndex

        backend_factory = resolve_backend_factory(backend, fs=fs)
        index_factory = LinearScanIndex
    db, journal, _ = open_serving_root(
        root,
        faults.seed_database(backend=backend_factory, index_factory=index_factory),
        fs=fs,
    )
    if backend is not None:
        db.build_indexes()
    worker = BatchWorker(
        db, ResultCache(0), MutationDeltaLog(), journal, ServiceLedger(0, None)
    )
    acked = 0
    for kind, payload in faults.workload_steps():
        mutation = Mutation(kind, payload)
        worker.apply(mutation)
        worker.ack()
        mutation.future.result(timeout=0)  # re-raises a failed step
        acked += 1
    journal.close()
    return acked


def _count_boundaries(tmp_path: Path, backend: str | None = None) -> int:
    fs = CountingFS()
    acked = _run_workload(tmp_path / "calibrate", fs, backend)
    assert acked == len(faults.workload_steps())
    return fs.count


class TestInProcessSweep:
    """Exhaustive: crash before every single boundary, in-process."""

    def test_every_boundary_preserves_acked_writes(self, tmp_path):
        total = _count_boundaries(tmp_path)
        assert total > 20  # the workload crosses plenty of boundaries
        for crash_at in range(total):
            root = tmp_path / f"crash-{crash_at}"
            acked = 0
            try:
                acked = _run_workload(root, FaultFS(crash_at))
            except InjectedCrash:
                pass
            else:
                pytest.fail(f"boundary {crash_at} of {total} never crashed")
            _assert_acked_prefix_survived(root, acked)

    def test_crash_free_run_acks_everything(self, tmp_path):
        acked = _run_workload(tmp_path / "clean", FileSystem())
        assert acked == len(faults.workload_steps())
        _assert_acked_prefix_survived(tmp_path / "clean", acked)


class TestMmapBackendSweep:
    """The same contract with index cores on the mmap backend.

    The journaled mutation stream now *also* crosses the backend's own
    write boundaries — page writes, the two-phase header rewrite,
    flush fsyncs — and a crash at any of them must still lose zero
    acknowledged writes.  (The backend holds derived state: recovery
    replays the journal onto a snapshot and rebuilds cores from
    scratch, so a torn core file can never surface — this sweep proves
    the mutation path itself never acknowledges past a vulnerable
    window.)
    """

    def test_boundaries_preserve_acked_writes(self, tmp_path):
        spec = f"mmap:{tmp_path / 'cal-cores'}"
        total = _count_boundaries(tmp_path, spec)
        baseline = _count_boundaries(tmp_path / "mem")
        assert total > baseline  # the backend write path joined the count
        if EXHAUSTIVE:
            points = list(range(total))
        else:
            points = sorted(
                {1, total // 6, total // 3, total // 2, (2 * total) // 3,
                 (5 * total) // 6, total - 2, total - 1}
            )
        for crash_at in points:
            root = tmp_path / f"crash-{crash_at}"
            backend = f"mmap:{tmp_path / f'cores-{crash_at}'}"
            acked = 0
            try:
                acked = _run_workload(root, FaultFS(crash_at), backend)
            except InjectedCrash:
                pass
            else:
                pytest.fail(f"boundary {crash_at} of {total} never crashed")
            _assert_acked_prefix_survived(root, acked)

    def test_recovery_replays_to_bit_identical_state(self, tmp_path):
        """Crash mid-stream on mmap, recover onto mmap: recovered state
        answers queries bit-identically to the memory-backend oracle."""
        from repro.db.backend import resolve_backend_factory
        from repro.index.linear import LinearScanIndex

        spec = f"mmap:{tmp_path / 'cal-cores'}"
        total = _count_boundaries(tmp_path, spec)
        root = tmp_path / "root"
        backend = f"mmap:{tmp_path / 'crash-cores'}"
        acked = 0
        try:
            acked = _run_workload(root, FaultFS(total // 2), backend)
        except InjectedCrash:
            pass
        recovered, _report = recover(
            root,
            faults.make_schema(),
            index_factory=LinearScanIndex,
            backend=resolve_backend_factory(f"mmap:{tmp_path / 'recover-cores'}"),
        )
        n_steps = len(faults.workload_steps())
        assert any(
            _states_match(recovered, _oracle(m))
            for m in range(acked, n_steps + 1)
        ), "mmap-backed recovery matches no valid oracle"


class TestSubprocessKill9:
    """The honest crash: ``os._exit(137)`` in a child process."""

    @staticmethod
    def _spawn(root: Path, crash_at: int, backend: str | None = None):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable, "-m", "tests.faults",
            str(root), str(crash_at),
        ]
        if backend is not None:
            argv.append(backend)
        return subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=str(Path(__file__).resolve().parent.parent),
        )

    @classmethod
    def _acked_steps(cls, stdout: str) -> int:
        acks = [line for line in stdout.splitlines() if line.startswith("ACK ")]
        return len(acks)

    def test_kill9_at_injected_boundaries(self, tmp_path):
        calibration = self._spawn(tmp_path / "cal", -1)
        assert calibration.returncode == 0, calibration.stderr
        total = int(calibration.stdout.split("DONE ")[1])
        if EXHAUSTIVE:
            points = list(range(total))
        else:
            # A spread sample: the boot-compaction window, the journal
            # append/fsync window, and the exact last boundaries.
            points = sorted(
                {0, 1, total // 4, total // 2, (3 * total) // 4, total - 2, total - 1}
            )
        for crash_at in points:
            root = tmp_path / f"kill-{crash_at}"
            child = self._spawn(root, crash_at)
            assert child.returncode == 137, (
                f"boundary {crash_at}/{total}: expected kill-style exit, got "
                f"{child.returncode}\n{child.stderr}"
            )
            acked = self._acked_steps(child.stdout)
            _assert_acked_prefix_survived(root, acked)

    def test_kill9_on_mmap_backend(self, tmp_path):
        """kill -9 with index cores on the mmap backend: zero
        acknowledged writes lost, recovery replays to oracle state."""
        calibration = self._spawn(
            tmp_path / "cal", -1, backend=f"mmap:{tmp_path / 'cal-cores'}"
        )
        assert calibration.returncode == 0, calibration.stderr
        total = int(calibration.stdout.split("DONE ")[1])
        points = sorted({1, total // 3, total // 2, (2 * total) // 3, total - 1})
        for crash_at in points:
            root = tmp_path / f"kill-{crash_at}"
            child = self._spawn(
                root, crash_at, backend=f"mmap:{tmp_path / f'cores-{crash_at}'}"
            )
            assert child.returncode == 137, (
                f"boundary {crash_at}/{total}: expected kill-style exit, got "
                f"{child.returncode}\n{child.stderr}"
            )
            acked = self._acked_steps(child.stdout)
            _assert_acked_prefix_survived(root, acked)

    def test_restart_after_kill9_serves_identically(self, tmp_path):
        """Kill mid-workload, restart, and compare live query answers."""
        calibration = self._spawn(tmp_path / "cal", -1)
        total = int(calibration.stdout.split("DONE ")[1])
        root = tmp_path / "root"
        child = self._spawn(root, (3 * total) // 4)
        assert child.returncode == 137
        acked = self._acked_steps(child.stdout)
        db, journal, report = open_serving_root(root, faults.seed_database())
        assert report is not None
        with QueryScheduler(db, journal=journal, max_wait_ms=0.0) as scheduler:
            n_steps = len(faults.workload_steps())
            oracles = [_oracle(m) for m in range(acked, n_steps + 1)]
            matches = [o for o in oracles if _states_match(db, o)]
            assert matches, "restarted server state matches no valid oracle"
            oracle = matches[0]
            rng = np.random.default_rng(5)
            feature = db.schema.names[0]
            for query in rng.random((4, 6)):
                served = scheduler.submit_query(query, 5).result(timeout=10)
                direct = oracle.query(query, k=5, feature=feature)
                assert [(r.image_id, r.distance) for r in served.results] == [
                    (r.image_id, r.distance) for r in direct
                ]


class _FailingFsyncFS(FileSystem):
    """fsync starts failing (OSError, not a crash) after ``allow`` calls."""

    def __init__(self, allow: int) -> None:
        self.allow = allow
        self.calls = 0

    def fsync(self, file) -> None:  # type: ignore[override]
        self.calls += 1
        if self.calls > self.allow:
            raise OSError(28, "No space left on device")
        super().fsync(file)


class TestJournaledScheduler:
    """The serving stack end-to-end against a durable root."""

    def _open(self, tmp_path, fs: FileSystem | None = None):
        return open_serving_root(
            tmp_path / "root", faults.seed_database(), fs=fs or FileSystem()
        )

    @pytest.mark.parametrize("staged_adds", [1, 3], ids=["one", "three"])
    def test_acked_mutations_survive_restart(self, tmp_path, rng, staged_adds):
        db, journal, _ = self._open(tmp_path)
        # Entering a scheduler as a context manager starts it; staging
        # needs the worker parked until every add is queued.
        scheduler = QueryScheduler(
            db, journal=journal, max_wait_ms=0.0, autostart=False
        )
        try:
            # Adds staged while the worker is parked drain as one formed
            # batch: one record each, one group fsync for all of them.
            blocks = rng.random((staged_adds, 3, 6))
            futures = [
                scheduler.submit_add(block, labels=["a", "b", "c"])
                for block in blocks
            ]
            scheduler.start()
            acked = [future.result(timeout=10) for future in futures]
            added = acked[0]
            scheduler.submit_remove([added.ids[1]]).result(timeout=10)
            info = scheduler.journal_info()
            n_records = info["records"]
            assert n_records == staged_adds + 1
            assert info["syncs"] == 2
        finally:
            scheduler.close()
        recovered, report = recover(tmp_path / "root", faults.make_schema())
        assert report.records_applied == n_records
        assert added.ids[1] not in recovered.catalog.ids
        assert recovered.catalog.get(added.ids[0]).label == "a"
        for result, block in zip(acked, blocks):
            for image_id, row in zip(result.ids, block):
                if image_id != added.ids[1]:
                    stored = recovered.vector_of("signature", image_id)
                    assert stored.tobytes() == row.tobytes()

    def test_save_compacts_and_resets_journal(self, tmp_path, rng):
        db, journal_set, _ = self._open(tmp_path)
        with QueryScheduler(db, journal=journal_set, max_wait_ms=0.0) as scheduler:
            scheduler.submit_add(rng.random((2, 6))).result(timeout=10)
            assert scheduler.journal_info()["records"] == 1
            result = scheduler.submit_save().result(timeout=10)
            assert result.kind == "save"
            assert scheduler.journal_info()["records"] == 0
            after = scheduler.submit_add(rng.random((1, 6))).result(timeout=10)
        recovered, report = recover(tmp_path / "root", faults.make_schema())
        assert report.snapshot is not None and report.adds_applied == 1
        assert len(recovered) == 12 + 2 + 1
        assert after.ids[0] in recovered.catalog.ids

    def test_save_without_journal_fails_future_only(self, rng):
        db = faults.seed_database()
        with QueryScheduler(db, max_wait_ms=0.0) as scheduler:
            future = scheduler.submit_save()
            with pytest.raises(ServeError, match="no journal"):
                future.result(timeout=10)
            # The scheduler itself is unharmed.
            scheduler.submit_query(np.zeros(6), 3).result(timeout=10)

    def test_fsync_failure_fails_futures_not_process(self, tmp_path, rng):
        fs = _FailingFsyncFS(allow=10_000)
        db, journal_set, _ = self._open(tmp_path, fs=fs)
        with QueryScheduler(db, journal=journal_set, max_wait_ms=0.0) as scheduler:
            scheduler.submit_add(rng.random((1, 6))).result(timeout=10)
            fs.allow = fs.calls  # every fsync from here on fails
            with pytest.raises(OSError, match="No space"):
                scheduler.submit_add(rng.random((1, 6))).result(timeout=10)
            # Queries are unaffected — reads need no durability.
            scheduler.submit_query(np.zeros(6), 3).result(timeout=10)
            fs.allow = 10_000_000  # let the close-time sync succeed

    def test_failed_mutation_journals_nothing(self, tmp_path, rng):
        db, journal_set, _ = self._open(tmp_path)
        with QueryScheduler(db, journal=journal_set, max_wait_ms=0.0) as scheduler:
            from repro.errors import CatalogError

            future = scheduler.submit_remove([424242])
            with pytest.raises(CatalogError):
                future.result(timeout=10)
            assert scheduler.journal_info()["records"] == 0
        recovered, _ = recover(tmp_path / "root", faults.make_schema())
        assert len(recovered) == 12

    def test_replayed_records_surface_in_info(self, tmp_path, rng):
        db, journal_set, _ = self._open(tmp_path)
        with QueryScheduler(db, journal=journal_set, max_wait_ms=0.0) as scheduler:
            scheduler.submit_add(rng.random((2, 6))).result(timeout=10)
        db2, journal_set2, report = self._open(tmp_path)
        assert report is not None
        with QueryScheduler(db2, journal=journal_set2, max_wait_ms=0.0) as scheduler:
            assert scheduler.journal_info()["replayed"] == report.records_applied
            metrics_text = scheduler.render_metrics()
            assert 'repro_journal{figure="replayed"}' in metrics_text
            stats = scheduler.stats()
            assert stats.journaled and stats.journal_replayed >= 1


class TestGracefulShutdown:
    """Satellite 2: SIGTERM-style close fails queued work distinctly."""

    def test_submissions_after_close_raise_shutting_down(self, rng):
        db = faults.seed_database()
        scheduler = QueryScheduler(db, max_wait_ms=0.0)
        scheduler.close()
        with pytest.raises(ShuttingDownError):
            scheduler.submit_query(np.zeros(6), 3)
        with pytest.raises(ShuttingDownError):
            scheduler.submit_add(rng.random((1, 6)))
        with pytest.raises(ShuttingDownError):
            scheduler.submit_save()
        # ShuttingDownError still is a ServeError: HTTP maps it to 503
        # and pre-existing except-ServeError callers keep working.
        assert issubclass(ShuttingDownError, ServeError)

    def test_unstarted_close_fails_staged_futures(self, rng):
        db = faults.seed_database()
        scheduler = QueryScheduler(db, max_wait_ms=0.0, autostart=False)
        staged = [scheduler.submit_add(rng.random((1, 6))) for _ in range(3)]
        scheduler.close(drain=False)
        for future in staged:
            with pytest.raises(ShuttingDownError):
                future.result(timeout=10)

    def test_abandoning_close_settles_every_future(self, tmp_path, rng):
        """drain=False: each future resolves *or* fails ShuttingDown —
        and whatever was acknowledged is on disk afterwards."""
        db, journal_set, _ = open_serving_root(
            tmp_path / "root", faults.seed_database()
        )
        scheduler = QueryScheduler(
            db, journal=journal_set, max_batch=2, autostart=False
        )
        futures = [scheduler.submit_add(rng.random((1, 6))) for _ in range(8)]
        scheduler.start()
        scheduler.close(drain=False)
        acked_ids = []
        abandoned = 0
        for future in futures:
            try:
                acked_ids.extend(future.result(timeout=10).ids)
            except ShuttingDownError:
                abandoned += 1
        recovered, _ = recover(tmp_path / "root", faults.make_schema())
        for image_id in acked_ids:
            assert image_id in recovered.catalog.ids
        assert len(recovered) == 12 + len(acked_ids)

    def test_draining_close_serves_everything(self, tmp_path, rng):
        db, journal_set, _ = open_serving_root(
            tmp_path / "root", faults.seed_database()
        )
        scheduler = QueryScheduler(
            db, journal=journal_set, max_batch=4, autostart=False
        )
        futures = [scheduler.submit_add(rng.random((1, 6))) for _ in range(6)]
        scheduler.start()
        scheduler.close()  # drain=True
        ids = [future.result(timeout=10).ids[0] for future in futures]
        recovered, _ = recover(tmp_path / "root", faults.make_schema())
        assert all(image_id in recovered.catalog.ids for image_id in ids)


class TestJournaledHTTP:
    """HTTP round trip against a durable root, including POST /save."""

    def test_http_mutations_survive_restart(self, tmp_path, rng):
        from repro.serve.client import ServiceClient
        from repro.serve.http import QueryServer

        db, journal_set, _ = open_serving_root(
            tmp_path / "root", faults.seed_database()
        )
        server = QueryServer(
            db, port=0, journal=journal_set, max_wait_ms=0.0
        ).start()
        try:
            client = ServiceClient(*server.address)
            health = client.wait_until_ready()
            assert health["durable"] is True
            assert health["journal"]["records"] == 0
            added = client.add(rng.random((2, 6)).tolist(), labels=["x", "y"])
            client.remove([added["ids"][1]])
            saved = client.save()
            assert saved["saved"] is True
            assert client.healthz()["journal"]["records"] == 0
            again = client.add(rng.random((1, 6)).tolist())
            stats = client.stats()
            assert stats["journaled"] is True and stats["saves"] == 1
        finally:
            server.stop()
        recovered, _ = recover(tmp_path / "root", faults.make_schema())
        assert added["ids"][0] in recovered.catalog.ids
        assert added["ids"][1] not in recovered.catalog.ids
        assert again["ids"][0] in recovered.catalog.ids

    def test_save_without_journal_maps_to_400(self, rng):
        from repro.errors import ServeError as _ServeError
        from repro.serve.client import ServiceClient
        from repro.serve.http import QueryServer

        server = QueryServer(faults.seed_database(), port=0, max_wait_ms=0.0).start()
        try:
            client = ServiceClient(*server.address)
            client.wait_until_ready()
            assert client.healthz()["durable"] is False
            with pytest.raises(_ServeError, match="no journal"):
                client.save()
        finally:
            server.stop()
