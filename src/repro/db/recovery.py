"""Startup recovery and snapshot compaction for a journaled serving root.

A serving root directory is the unit of durability::

    root/
      MANIFEST.json        -> {"snapshot": "snap-000007", "fingerprint": ...}
      snap-000007/         the last compacted snapshot (ImageDatabase.save)
      wal-000.log          the write-ahead journal since that snapshot

The manifest is the single commit point: it is only ever replaced
atomically (temp + fsync + rename), and it names the one snapshot
directory that is current.  Compaction writes a *fresh* ``snap-NNNNNN``
directory, fsyncs it, flips the manifest, and only then resets the
journal — a crash at any point leaves either the old
(manifest, snapshot, journal) triple or the new one, never a mix that
replays into a different state.

**Recovery algorithm** (:func:`recover`):

1. Read the manifest; load the snapshot it names.  A root with journal
   records but no manifest (or a manifest naming a missing snapshot) is
   a hard :class:`~repro.errors.RecoveryError` — replaying onto the
   wrong base would corrupt silently.
2. Scan the journal.  Torn tail records (failed CRC) are counted and
   truncated, never applied; they are by construction unacknowledged
   (the scheduler fsyncs before resolving futures).
3. Demand fingerprint equality (format version + feature config)
   between the manifest, the journal, and the serving schema.
4. Collect abort marks, then replay the other records in file order
   (which is sequence order: one writer appends them).  Replay is
   idempotent: an add whose ids were handed out before (below the
   catalog's ``next_id``; ids are never reused) is skipped whole, a
   remove is filtered to ids actually present — so a crash *between*
   the manifest flip and the journal reset (records already baked into
   the snapshot) replays to the same state, and replaying a journal
   twice equals once.

A root with a ``wal-001.log`` or higher was written by a multi-shard
server of an earlier version; its mutations may be split across files.
Recovery refuses it (:class:`~repro.errors.RecoveryError` naming the
files) before truncating, compacting or deleting anything.

:func:`open_serving_root` is the serve-boot flow: recover if the root
has history, otherwise seed from the ``--db`` database; then compact
immediately so serving always starts from a fresh snapshot and an empty
journal.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro.db.database import ImageDatabase
from repro.db.fsutil import REAL_FS, FileSystem, atomic_write_bytes
from repro.db.journal import JOURNAL_FILE, Journal, JournalRecord, fingerprint_of
from repro.errors import JournalError, RecoveryError
from repro.features.pipeline import FeatureSchema
from repro.metrics.base import Metric

__all__ = [
    "MANIFEST_FILE",
    "RecoveryReport",
    "database_fingerprint",
    "read_manifest",
    "write_manifest",
    "recover",
    "compact",
    "open_serving_root",
]

MANIFEST_FILE = "MANIFEST.json"
_SNAP_PREFIX = "snap-"
#: Every journal file name any version wrote (multi-shard servers wrote
#: ``wal-001.log`` and up beside :data:`JOURNAL_FILE`).
_WAL_GLOB = "wal-[0-9][0-9][0-9].log"


def database_fingerprint(db: ImageDatabase) -> dict:
    """The compatibility fingerprint of a live database's configuration."""
    return fingerprint_of(
        [(name, db.schema.get(name).dim) for name in db.schema.names],
        {name: metric.name for name, metric in db.metrics.items()},
    )


def read_manifest(root: str | Path) -> dict | None:
    """The parsed manifest, or ``None`` when the root has none yet."""
    path = Path(root) / MANIFEST_FILE
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "snapshot" not in manifest:
        raise RecoveryError(f"malformed manifest {path}: {manifest!r}")
    return manifest


def write_manifest(
    root: str | Path, manifest: dict, *, fs: FileSystem = REAL_FS
) -> None:
    """Atomically replace the root's manifest — the commit point."""
    atomic_write_bytes(
        Path(root) / MANIFEST_FILE,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
        fs=fs,
    )


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover` call found and did."""

    snapshot: str | None  #: snapshot directory name replay started from
    journal_files: int
    records_scanned: int  #: intact mutation records in the journal
    adds_applied: int
    removes_applied: int
    records_skipped: int  #: already-in-snapshot or empty-after-filter
    records_aborted: int  #: skipped via abort marks
    torn_bytes_truncated: int
    replay_s: float
    items: int  #: live items after replay
    generation: int  #: the replayed database's data version

    @property
    def records_applied(self) -> int:
        return self.adds_applied + self.removes_applied

    def summary(self) -> str:
        """One human-readable line (the CLI prints this)."""
        return (
            f"recovered {self.items} items from "
            f"{self.snapshot or 'empty root'} + {self.journal_files} "
            f"journal(s): {self.adds_applied} adds, "
            f"{self.removes_applied} removes replayed "
            f"({self.records_skipped} skipped, {self.records_aborted} "
            f"aborted, {self.torn_bytes_truncated} torn bytes truncated) "
            f"in {self.replay_s * 1e3:.1f} ms"
        )


def _check_fingerprint(expected: dict, found: dict, source: str) -> None:
    if found != expected:
        raise RecoveryError(
            f"fingerprint mismatch in {source}: journal/snapshot were "
            f"written under {found!r} but the serving configuration is "
            f"{expected!r}; refusing to replay (rebuild the root or fix "
            f"the schema)"
        )


def _refuse_multi_shard_root(root: Path) -> None:
    """Fail closed on a root an earlier multi-shard server wrote.

    Its mutations may be split across ``wal-NNN.log`` files, and no
    single file tells whether a split mutation is complete, so nothing
    is replayed, truncated, compacted or deleted.
    """
    extra = sorted(
        path.name
        for path in root.glob(_WAL_GLOB)
        if path.name != JOURNAL_FILE
    )
    if extra:
        raise RecoveryError(
            f"{root} holds journal files {extra} beside {JOURNAL_FILE}: it "
            f"was written by a multi-shard server, which this version does "
            f"not read; refusing to recover (nothing was changed)"
        )


def recover(
    root: str | Path,
    schema: FeatureSchema,
    *,
    metrics: Mapping[str, Metric] | None = None,
    index_factory: Callable | None = None,
    backend=None,
    fs: FileSystem = REAL_FS,
    repair: bool = True,
) -> tuple[ImageDatabase, RecoveryReport]:
    """Rebuild the database state a crashed (or cleanly stopped) serving
    root represents: last snapshot + intact journal records.

    ``schema``/``metrics``/``index_factory``/``backend`` configure the
    rebuilt database exactly as :meth:`ImageDatabase.load` would; the
    stored fingerprint must match that configuration.  (The backend is
    not part of the fingerprint — it changes where index cores live,
    never what any query returns.)  With ``repair`` (the default) a torn
    journal tail is truncated on disk; pass ``False`` for a read-only
    inspection replay.

    Raises
    ------
    RecoveryError
        Manifest/snapshot/journal inconsistency, fingerprint mismatch,
        or a root written by a multi-shard server.
    """
    root = Path(root)
    started = time.perf_counter()
    _refuse_multi_shard_root(root)
    probe = ImageDatabase(
        schema, metrics=metrics, index_factory=index_factory, backend=backend
    )
    expected = database_fingerprint(probe)

    path = root / JOURNAL_FILE
    scan = None
    if path.exists():
        try:
            scan = Journal.scan(path)
        except JournalError as exc:
            raise RecoveryError(f"unreadable journal under {root}: {exc}") from exc
        _check_fingerprint(expected, scan.fingerprint, str(path))
    records = scan.records if scan is not None else []

    manifest = read_manifest(root)
    if manifest is None:
        if records:
            raise RecoveryError(
                f"{root} has journal records but no manifest; the snapshot "
                f"they apply to is unknown — refusing to replay"
            )
        db = probe
        snapshot_name = None
    else:
        _check_fingerprint(
            expected, manifest.get("fingerprint", {}), str(root / MANIFEST_FILE)
        )
        snapshot_name = str(manifest["snapshot"])
        snapshot_dir = root / snapshot_name
        if not snapshot_dir.is_dir():
            raise RecoveryError(
                f"manifest names snapshot {snapshot_name!r} but "
                f"{snapshot_dir} does not exist"
            )
        db = ImageDatabase.load(
            snapshot_dir,
            schema,
            metrics=metrics,
            index_factory=index_factory,
            backend=backend,
        )

    if repair and scan is not None and scan.torn_bytes:
        with open(path, "r+b") as file:
            file.truncate(scan.valid_bytes)

    # Abort marks (written when apply failed after journaling) veto
    # their sequence number.
    aborted = {record.seq for record in records if record.op == "abort"}
    adds = removes = skipped = n_aborted = 0
    for record in records:
        if record.op == "abort":
            continue
        if record.seq in aborted:
            n_aborted += 1
        elif record.op == "add" and _replay_add(db, record):
            adds += 1
        elif record.op == "remove" and _replay_remove(db, record):
            removes += 1
        else:
            skipped += 1

    report = RecoveryReport(
        snapshot=snapshot_name,
        journal_files=int(scan is not None),
        records_scanned=len(records),
        adds_applied=adds,
        removes_applied=removes,
        records_skipped=skipped,
        records_aborted=n_aborted,
        torn_bytes_truncated=scan.torn_bytes if scan is not None else 0,
        replay_s=time.perf_counter() - started,
        items=len(db),
        generation=db.generation,
    )
    return db, report


def _replay_add(db: ImageDatabase, record: JournalRecord) -> bool:
    """Apply one add; False (skipped) when it is already in the snapshot.

    Idempotence rule: the worker journals an add under the next free
    ids, never reused, so if *any* of the record's ids is below the
    database's next free id, the add is in the snapshot: skipped.
    """
    ids = list(record.ids)
    if not ids or min(ids) < db.next_image_id():
        return False
    db.add_vectors(
        dict(record.matrices),
        labels=list(record.labels) if record.labels is not None else None,
        names=list(record.names) if record.names is not None else None,
        ids=ids,
    )
    return True


def _replay_remove(db: ImageDatabase, record: JournalRecord) -> bool:
    """Apply one remove, filtered to present ids; False when none is."""
    present = [image_id for image_id in record.ids if image_id in db.catalog]
    if not present:
        return False
    db.remove(present)
    return True


def _next_snapshot_name(root: Path) -> str:
    highest = -1
    for entry in root.glob(f"{_SNAP_PREFIX}*"):
        try:
            highest = max(highest, int(entry.name[len(_SNAP_PREFIX) :]))
        except ValueError:
            continue
    return f"{_SNAP_PREFIX}{highest + 1:06d}"


def compact(
    journal: Journal,
    db: ImageDatabase,
    *,
    keep_snapshots: int = 1,
) -> str:
    """Fold the journaled history into a fresh snapshot; reset the journal.

    The journal's directory is the serving root.  The crash-safe
    sequence, in order:

    1. save ``db`` into a new ``snap-NNNNNN`` directory (every file
       fsync'd — the directory is unreferenced until step 2, so partial
       writes there are garbage, not corruption);
    2. atomically flip ``MANIFEST.json`` to name it — **the commit
       point**;
    3. atomically reset the journal file (its records are now part of
       the snapshot; replay's already-present rule makes a crash
       between 2 and 3 harmless);
    4. best-effort delete superseded snapshot directories beyond
       ``keep_snapshots``.

    Returns the new snapshot's directory name.
    """
    fs = journal.fs
    root = journal.root
    root.mkdir(parents=True, exist_ok=True)
    name = _next_snapshot_name(root)
    snapshot_dir = root / name
    db.save(snapshot_dir, fs=fs)
    fs.fsync_dir(snapshot_dir)
    fs.fsync_dir(root)
    write_manifest(
        root,
        {
            "snapshot": name,
            "fingerprint": journal.fingerprint,
            "items": len(db),
        },
        fs=fs,
    )
    journal.reset()
    survivors = sorted(
        (entry for entry in root.glob(f"{_SNAP_PREFIX}*") if entry.is_dir()),
        key=lambda entry: entry.name,
    )
    for stale in survivors[: max(0, len(survivors) - max(1, keep_snapshots))]:
        shutil.rmtree(stale, ignore_errors=True)
    return name


def open_serving_root(
    root: str | Path,
    seed_db: ImageDatabase,
    *,
    fs: FileSystem = REAL_FS,
) -> tuple[ImageDatabase, Journal, RecoveryReport | None]:
    """Open (or initialize) a journaled serving root — the serve-boot flow.

    A root with history (a manifest or journal files) is recovered:
    the snapshot is loaded and the journal replayed — ``seed_db`` then
    only supplies the configuration (schema/metrics/index factory), its
    items are ignored in favour of the recovered state.  A fresh root is
    seeded from ``seed_db``'s items.  Either way the state is compacted
    immediately, so the returned :class:`~repro.db.journal.Journal`
    starts empty over a current snapshot, and the returned database is
    the one to serve.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    has_history = (root / MANIFEST_FILE).exists() or any(
        root.glob(_WAL_GLOB)
    )
    report: RecoveryReport | None = None
    if has_history:
        db, report = recover(
            root,
            seed_db.schema,
            metrics=seed_db.metrics,
            index_factory=seed_db.index_factory,
            backend=seed_db.backend_factory,
            fs=fs,
        )
    else:
        db = seed_db
    journal = Journal(root / JOURNAL_FILE, database_fingerprint(db), fs=fs)
    compact(journal, db)
    if report is not None:
        journal.replayed_records = report.records_applied
    return db, journal, report
