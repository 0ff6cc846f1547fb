"""Unit tests for the write-ahead journal (``repro.db.journal``).

The codec and file format are the foundation of the durability
contract: these tests pin the record round trip bit-for-bit, the
torn-tail semantics (stop at the first bad CRC, truncate on reopen,
never replay), the fingerprint gate, and the group-commit bookkeeping
of :class:`Journal`.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.db.journal import (
    FORMAT_VERSION,
    Journal,
    JournalRecord,
    decode_payload,
    encode_record,
    fingerprint_of,
)
from repro.errors import JournalError

FP = fingerprint_of({"sig": 4}, {"sig": "l2"})
_PREFIX = struct.Struct("<II")


def _payload(record: JournalRecord) -> bytes:
    return encode_record(record)[_PREFIX.size :]


class TestCodec:
    def test_add_roundtrip_bit_identical(self, rng):
        matrix = rng.random((3, 4))
        record = JournalRecord.add(
            7, [10, 11, 12], {"sig": matrix}, ["a", None, "c"], ["x", "y", "z"]
        )
        decoded = decode_payload(_payload(record))
        assert decoded.op == "add" and decoded.seq == 7
        assert decoded.ids == (10, 11, 12)
        assert decoded.labels == ("a", None, "c")
        assert decoded.names == ("x", "y", "z")
        assert decoded.matrices["sig"].tobytes() == matrix.tobytes()

    def test_remove_and_abort_roundtrip(self):
        remove = decode_payload(_payload(JournalRecord.remove(3, [5, 1])))
        assert (remove.op, remove.seq, remove.ids) == ("remove", 3, (5, 1))
        abort = decode_payload(_payload(JournalRecord.abort(9)))
        assert (abort.op, abort.seq) == ("abort", 9)

    def test_fingerprint_roundtrip(self):
        record = JournalRecord(op="fingerprint", fingerprint=FP)
        assert decode_payload(_payload(record)).fingerprint == FP

    def test_multi_feature_blocks_in_header_order(self, rng):
        matrices = {"sig": rng.random((2, 4)), "tex": rng.random((2, 6))}
        record = JournalRecord.add(1, [0, 1], matrices, None, None)
        decoded = decode_payload(_payload(record))
        for name, matrix in matrices.items():
            assert decoded.matrices[name].tobytes() == matrix.tobytes()

    def test_unknown_op_refused_both_ways(self):
        with pytest.raises(JournalError, match="unknown journal op"):
            encode_record(JournalRecord(op="merge"))
        bad = _payload(JournalRecord.remove(1, [2])).replace(
            b'"op": "remove"', b'"op": "weird!"'
        )
        with pytest.raises(JournalError, match="unknown journal op"):
            decode_payload(bad)

    def test_truncated_feature_block_refused(self, rng):
        payload = _payload(
            JournalRecord.add(1, [0], {"sig": rng.random((1, 4))}, None, None)
        )
        with pytest.raises(JournalError, match="truncated"):
            decode_payload(payload[:-8])

    def test_fingerprint_covers_version_features_metrics(self):
        assert FP["version"] == FORMAT_VERSION
        assert FP["features"] == [{"name": "sig", "dim": 4}]
        assert FP["metrics"] == {"sig": "l2"}
        assert fingerprint_of({"sig": 5}, {"sig": "l2"}) != FP
        assert fingerprint_of({"sig": 4}, {"sig": "l1"}) != FP


class TestJournalFile:
    def test_create_append_scan(self, tmp_path, rng):
        journal = Journal.create(tmp_path / "wal.log", FP)
        matrix = rng.random((2, 4))
        journal.append(JournalRecord.add(0, [0, 1], {"sig": matrix}, None, None))
        journal.append(JournalRecord.remove(1, [0]), sync=True)
        journal.close()
        scan = Journal.scan(tmp_path / "wal.log")
        assert scan.fingerprint == FP
        assert [r.op for r in scan.records] == ["add", "remove"]
        assert scan.records[0].matrices["sig"].tobytes() == matrix.tobytes()
        assert scan.torn_bytes == 0

    def test_append_buffers_until_sync(self, tmp_path):
        journal = Journal.create(tmp_path / "wal.log", FP)
        base = (tmp_path / "wal.log").stat().st_size
        journal.append(JournalRecord.remove(0, [1]))
        assert journal.dirty
        journal.sync()
        assert not journal.dirty
        assert (tmp_path / "wal.log").stat().st_size > base
        journal.close()

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        journal = Journal.create(path, FP)
        journal.append(JournalRecord.remove(0, [1]), sync=True)
        journal.close()
        good_size = path.stat().st_size
        # A crash mid-append: half of a record's bytes reached the disk.
        torn = encode_record(JournalRecord.remove(1, [2]))
        with open(path, "ab") as file:
            file.write(torn[: len(torn) // 2])
        scan = Journal.scan(path)
        assert len(scan.records) == 1  # the torn record is invisible
        assert scan.valid_bytes == good_size
        assert scan.torn_bytes == len(torn) // 2
        reopened = Journal.open(path)
        reopened.close()
        assert path.stat().st_size == good_size  # tail gone for good

    def test_corrupt_crc_hides_record_and_everything_after(self, tmp_path):
        path = tmp_path / "wal.log"
        journal = Journal.create(path, FP)
        journal.append(JournalRecord.remove(0, [1]), sync=True)
        first_end = path.stat().st_size
        journal.append(JournalRecord.remove(1, [2]), sync=True)
        journal.append(JournalRecord.remove(2, [3]), sync=True)
        journal.close()
        raw = bytearray(path.read_bytes())
        raw[first_end + _PREFIX.size + 4] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        scan = Journal.scan(path)
        # Sequential scan stops at the first bad CRC: the (intact)
        # third record is unreachable and must not be replayed — its
        # mutation was only acknowledged after the second's fsync, and
        # replaying around a hole would reorder history.
        assert [r.seq for r in scan.records] == [0]
        assert scan.torn_bytes > 0

    def test_bad_magic_is_corruption_not_crash(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!")
        with pytest.raises(JournalError, match="magic"):
            Journal.scan(path)

    def test_missing_fingerprint_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"RWALV001" + encode_record(JournalRecord.remove(0, [1])))
        with pytest.raises(JournalError):
            Journal.scan(path)

    def test_reset_leaves_fresh_empty_journal(self, tmp_path):
        path = tmp_path / "wal.log"
        journal = Journal.create(path, FP)
        journal.append(JournalRecord.remove(0, [1]), sync=True)
        journal.reset()
        journal.append(JournalRecord.remove(5, [2]), sync=True)
        journal.close()
        scan = Journal.scan(path)
        assert [r.seq for r in scan.records] == [5]  # pre-reset record gone


class TestGroupCommit:
    def test_sync_without_appends_does_not_fsync(self, tmp_path):
        journal = Journal.create(tmp_path / "wal.log", FP)
        observed: list[float] = []
        journal.on_fsync = observed.append
        assert journal.sync() == 0.0
        assert len(observed) == 0
        journal.append(JournalRecord.remove(0, [1]))
        journal.sync()
        journal.sync()
        assert len(observed) == 1
        journal.close()

    def test_on_fsync_observer_fires_per_group_commit(self, tmp_path):
        journal = Journal.create(tmp_path / "wal.log", FP)
        observed: list[float] = []
        journal.on_fsync = observed.append
        journal.append(JournalRecord.remove(0, [1]))
        journal.append(JournalRecord.remove(1, [2]))
        journal.sync()
        assert len(observed) == 1  # one group fsync for two appends
        journal.close()

    def test_bare_journal_writes_its_file_at_first_reset(self, tmp_path):
        journal = Journal(tmp_path / "wal.log", FP)
        assert not (tmp_path / "wal.log").exists()
        with pytest.raises(JournalError, match="reset"):
            journal.append(JournalRecord.remove(0, [1]))
        journal.reset()
        journal.append(JournalRecord.remove(0, [1]), sync=True)
        journal.close()
        assert [r.op for r in Journal.scan(tmp_path / "wal.log").records] == ["remove"]
