"""Recovery and atomic-snapshot tests (``repro.db.recovery``).

Covers the replay algorithm's edge cases — the states a real crash can
leave behind — plus the atomic-save satellites: empty journal, roots
whose journal holds *only* a torn tail, replay idempotence (recovering
twice yields the recovering-once state, and records already folded into
the snapshot are skipped rather than double-applied), removes of ids
that never made it into any snapshot, fingerprint gating, and the
temp-fsync-rename discipline of ``ImageDatabase.save``; roots an
earlier multi-shard server wrote are refused untouched, and records
carrying the older ``total`` header key replay like current ones.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.db.journal import JOURNAL_FILE, Journal, JournalRecord, encode_record
from repro.db.recovery import (
    MANIFEST_FILE,
    compact,
    database_fingerprint,
    open_serving_root,
    read_manifest,
    recover,
)
from repro.errors import RecoveryError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema

DIM = 4
FEATURE = "signature"


def _schema() -> FeatureSchema:
    return FeatureSchema([PresetSignature(DIM)])


def _seed_db(rng, n: int = 10) -> ImageDatabase:
    db = ImageDatabase(_schema())
    db.add_vectors(rng.random((n, DIM)))
    return db


def _open_root(tmp_path, rng):
    return open_serving_root(tmp_path / "root", _seed_db(rng))


def _with_total(encoded: bytes) -> bytes:
    """``encoded`` re-framed with the ``total`` header key older writers set."""
    payload = encoded[8:]
    (header_len,) = struct.unpack_from("<I", payload)
    header = json.loads(payload[4 : 4 + header_len])
    header["total"] = len(header["ids"])
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = (
        struct.pack("<I", len(header_bytes)) + header_bytes + payload[4 + header_len :]
    )
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _states_equal(a: ImageDatabase, b: ImageDatabase) -> bool:
    if set(a.catalog.ids) != set(b.catalog.ids):
        return False
    return all(
        a.vector_of(FEATURE, i).tobytes() == b.vector_of(FEATURE, i).tobytes()
        for i in a.catalog.ids
    )


class TestRecoverEdgeCases:
    def test_empty_journal_recovers_snapshot_exactly(self, tmp_path, rng):
        db, journal, report = _open_root(tmp_path, rng)
        journal.close()
        assert report is None  # fresh root: seeded, not recovered
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.records_scanned == 0 and rep.records_applied == 0
        assert _states_equal(recovered, db)

    def test_only_torn_tail_truncated_and_nothing_replayed(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        journal.close()
        path = tmp_path / "root" / JOURNAL_FILE
        torn = encode_record(JournalRecord.remove(0, [1]))
        with open(path, "ab") as file:
            file.write(torn[:-3])
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.torn_bytes_truncated == len(torn) - 3
        assert rep.records_applied == 0
        assert _states_equal(recovered, db)  # the torn remove never happened
        # repair=True actually shrank the file, so a later scan is clean.
        assert Journal.scan(path).torn_bytes == 0

    def test_no_repair_leaves_torn_tail_on_disk(self, tmp_path, rng):
        _, journal, _ = _open_root(tmp_path, rng)
        journal.close()
        path = tmp_path / "root" / JOURNAL_FILE
        with open(path, "ab") as file:
            file.write(b"\x99" * 11)
        recover(tmp_path / "root", _schema(), repair=False)
        assert Journal.scan(path).torn_bytes == 11

    def test_replay_twice_equals_replay_once(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        seq = journal.next_seq()
        matrix = rng.random((2, DIM))
        ids = db.add_vectors(matrix)
        journal.append(JournalRecord.add(seq, ids, {FEATURE: matrix}, None, None), sync=True)
        journal.close()
        once, rep1 = recover(tmp_path / "root", _schema())
        twice, rep2 = recover(tmp_path / "root", _schema())
        assert rep1.adds_applied == rep2.adds_applied == 1
        assert _states_equal(once, twice)
        assert _states_equal(once, db)

    def test_records_already_in_snapshot_are_skipped(self, tmp_path, rng):
        # The crash window between the manifest flip and the journal
        # reset: the journal still holds records the fresh snapshot
        # already contains.  Replay must converge, not double-apply.
        db, journal, _ = _open_root(tmp_path, rng)
        seq = journal.next_seq()
        matrix = rng.random((2, DIM))
        ids = db.add_vectors(matrix)
        record = JournalRecord.add(seq, ids, {FEATURE: matrix}, None, None)
        journal.append(record, sync=True)
        compact(journal, db)  # snapshot now holds ids; journal reset
        # Re-append the same record, as if the reset never happened.
        journal.append(record, sync=True)
        journal.close()
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.records_skipped == 1 and rep.adds_applied == 0
        assert _states_equal(recovered, db)

    def test_remove_of_never_snapshotted_id(self, tmp_path, rng):
        # An id born and killed entirely inside the journal: the add
        # and the remove both replay, and the id must not survive.
        db, journal, _ = _open_root(tmp_path, rng)
        matrix = rng.random((2, DIM))
        ids = db.add_vectors(matrix)
        seq_add = journal.next_seq()
        journal.append(JournalRecord.add(seq_add, ids, {FEATURE: matrix}, None, None))
        db.remove([ids[0]])
        seq_rm = journal.next_seq()
        journal.append(JournalRecord.remove(seq_rm, [ids[0]]), sync=True)
        journal.close()
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.adds_applied == 1 and rep.removes_applied == 1
        assert ids[0] not in recovered.catalog.ids
        assert ids[1] in recovered.catalog.ids
        assert _states_equal(recovered, db)

    def test_remove_of_unknown_id_is_skipped_not_fatal(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        seq = journal.next_seq()
        journal.append(JournalRecord.remove(seq, [424242]), sync=True)
        journal.close()
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.records_skipped == 1 and rep.removes_applied == 0
        assert _states_equal(recovered, db)

    def test_aborted_sequence_is_vetoed(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        matrix = rng.random((1, DIM))
        seq = journal.next_seq()
        journal.append(JournalRecord.add(seq, [900], {FEATURE: matrix}, None, None))
        journal.append(JournalRecord.abort(seq))
        journal.sync()
        journal.close()
        recovered, rep = recover(tmp_path / "root", _schema())
        assert rep.records_aborted == 1 and rep.adds_applied == 0
        assert 900 not in recovered.catalog.ids
        assert _states_equal(recovered, db)

    def test_records_without_manifest_refused(self, tmp_path, rng):
        _, journal, _ = _open_root(tmp_path, rng)
        seq = journal.next_seq()
        journal.append(JournalRecord.remove(seq, [1]), sync=True)
        journal.close()
        (tmp_path / "root" / MANIFEST_FILE).unlink()
        with pytest.raises(RecoveryError, match="no manifest"):
            recover(tmp_path / "root", _schema())

    def test_manifest_naming_missing_snapshot_refused(self, tmp_path, rng):
        import json

        _, journal, _ = _open_root(tmp_path, rng)
        journal.close()
        manifest_path = tmp_path / "root" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshot"] = "snap-999999"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RecoveryError, match="does not exist"):
            recover(tmp_path / "root", _schema())

    def test_fingerprint_mismatch_refused(self, tmp_path, rng):
        _, journal, _ = _open_root(tmp_path, rng)
        journal.close()
        wrong = FeatureSchema([PresetSignature(DIM + 1)])
        with pytest.raises(RecoveryError, match="fingerprint"):
            recover(tmp_path / "root", wrong)


class TestOpenServingRoot:
    def test_fresh_root_seeds_and_snapshots(self, tmp_path, rng):
        db, journal, report = _open_root(tmp_path, rng)
        journal.close()
        assert report is None
        manifest = read_manifest(tmp_path / "root")
        assert manifest is not None
        assert (tmp_path / "root" / manifest["snapshot"]).is_dir()
        assert manifest["fingerprint"] == database_fingerprint(db)

    def test_reopen_recovers_and_compacts(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        matrix = rng.random((2, DIM))
        ids = db.add_vectors(matrix)
        seq = journal.next_seq()
        journal.append(JournalRecord.add(seq, ids, {FEATURE: matrix}, None, None), sync=True)
        journal.close()
        first_manifest = read_manifest(tmp_path / "root")
        db2, journal2, report = open_serving_root(tmp_path / "root", _seed_db(rng))
        journal2.close()
        assert report is not None and report.adds_applied == 1
        assert journal2.replayed_records == report.records_applied
        assert _states_equal(db2, db)
        # Startup compaction folded the journal into a new snapshot.
        second_manifest = read_manifest(tmp_path / "root")
        assert second_manifest["snapshot"] != first_manifest["snapshot"]
        assert journal2.n_records == 0

    def test_compact_prunes_old_snapshots(self, tmp_path, rng):
        db, journal, _ = _open_root(tmp_path, rng)
        compact(journal, db)
        compact(journal, db)
        journal.close()
        snaps = sorted(
            p.name for p in (tmp_path / "root").iterdir() if p.name.startswith("snap-")
        )
        assert len(snaps) == 1  # keep_snapshots=1 default
        assert read_manifest(tmp_path / "root")["snapshot"] == snaps[0]

    def test_multi_shard_root_is_refused_untouched(self, tmp_path, rng):
        # A root an earlier multi-shard server wrote has wal-001.log
        # beside wal-000.log; nothing may be replayed, truncated,
        # compacted or deleted.
        _, journal, _ = _open_root(tmp_path, rng)
        journal.append(JournalRecord.remove(journal.next_seq(), [1]), sync=True)
        journal.close()
        root = tmp_path / "root"
        (root / "wal-001.log").write_bytes((root / JOURNAL_FILE).read_bytes() + b"\x99")
        before = {path.name: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        with pytest.raises(RecoveryError, match="wal-001.log"):
            recover(root, _schema())
        with pytest.raises(RecoveryError, match="wal-001.log"):
            open_serving_root(root, _seed_db(rng))
        after = {path.name: path.read_bytes() for path in root.rglob("*") if path.is_file()}
        assert after == before

    def test_records_with_total_header_replay_identically(self, tmp_path, rng):
        # Journals written before the single-file layout carry a
        # ``total`` key on add and remove headers; they decode and
        # replay exactly like the records this version writes.
        db, journal, _ = _open_root(tmp_path, rng)
        matrix = rng.random((2, DIM))
        ids = db.add_vectors(matrix, labels=["a", None])
        db.remove([ids[0], 3])
        records = [
            JournalRecord.add(1, ids, {FEATURE: matrix}, ["a", None], None),
            JournalRecord.remove(2, [ids[0], 3]),
        ]
        journal.close()
        path = tmp_path / "root" / JOURNAL_FILE
        with open(path, "ab") as file:
            for record in records:
                file.write(_with_total(encode_record(record)))
        for a, b in zip(records, Journal.scan(path).records, strict=True):
            assert (a.op, a.seq, a.ids, a.labels, a.names) == (
                b.op, b.seq, b.ids, b.labels, b.names
            )
            assert {k: m.tobytes() for k, m in a.matrices.items()} == {
                k: m.tobytes() for k, m in b.matrices.items()
            }
        recovered, report = recover(tmp_path / "root", _schema())
        assert report.adds_applied == 1 and report.removes_applied == 1
        assert _states_equal(recovered, db)
        assert recovered.catalog.get(ids[1]).label is None


class TestAtomicSaves:
    def test_save_leaves_no_staging_residue(self, tmp_path, rng):
        db = _seed_db(rng)
        db.save(tmp_path / "snap")
        residue = [
            p
            for p in (tmp_path / "snap").rglob("*")
            if p.name.endswith(".tmp") or p.name.endswith(".new")
        ]
        assert residue == []
        loaded = ImageDatabase.load(tmp_path / "snap", _schema())
        assert _states_equal(loaded, db)

    def test_resave_over_existing_directory(self, tmp_path, rng):
        db = _seed_db(rng)
        db.save(tmp_path / "snap")
        db.add_vectors(rng.random((3, DIM)))
        db.save(tmp_path / "snap")  # os.replace over the previous files
        loaded = ImageDatabase.load(tmp_path / "snap", _schema())
        assert _states_equal(loaded, db)
