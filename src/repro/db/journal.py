"""Append-only write-ahead journal for database mutations.

The serving layer acknowledges ``add``/``remove`` requests; this module
is what makes those acknowledgements mean something across a crash.
Every mutation is encoded as one self-describing record and appended to
a journal file *before* its future resolves; recovery
(``repro.db.recovery``) replays the journal onto the last snapshot at
startup.  The contract, end to end:

    acknowledged future  ⟹  fsync'd journal record (or compacted
    snapshot)  ⟹  the mutation survives kill -9.

File layout (little-endian)::

    offset 0   magic    8 bytes   b"RWALV001"
    offset 8   records, each:
        u32  payload length
        u32  CRC32 of the payload
        payload:
            u32  header length
            header   UTF-8 JSON (op, seq, ids, labels, names, feature
                     shapes)
            data     raw float64 matrix bytes, one block per feature,
                     in header order (add records only)

The first record is always a ``fingerprint`` record carrying the format
version and the feature configuration (names, dims, metric names); a
replay against a snapshot or schema with a different fingerprint is
refused (:class:`~repro.errors.RecoveryError`) instead of silently
producing garbage.

**Torn tails are normal.**  A crash mid-append leaves a record whose
length prefix, payload, or CRC is incomplete.  :meth:`Journal.scan`
stops at the first record that fails its checksum and reports the valid
prefix; everything after it is truncated on reopen, never replayed.
Because appends are strictly sequential and fsync happens before any
acknowledgement, a torn record is by construction *unacknowledged* —
truncating it loses nothing the client was promised.

**Group commit.**  :meth:`Journal.append` only buffers; :meth:`sync` is
the durability point.  The scheduler appends every mutation in a formed
batch and pays one fsync for the group before resolving any of their
futures — batching the dominant cost of journaling without weakening
the per-acknowledgement guarantee.

A serving root holds exactly one journal, :data:`JOURNAL_FILE`; the
handle also hands out the mutation sequence numbers abort marks refer
to.
"""

from __future__ import annotations

import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

import numpy as np

from repro.db.fsutil import REAL_FS, FileSystem, atomic_write_bytes
from repro.errors import JournalError

__all__ = [
    "FORMAT_VERSION",
    "JOURNAL_FILE",
    "JournalRecord",
    "Journal",
    "fingerprint_of",
]

_MAGIC = b"RWALV001"
_PREFIX = struct.Struct("<II")  # payload length, CRC32(payload)
_HEADER_LEN = struct.Struct("<I")

#: Journal/snapshot format version, part of the fingerprint.
FORMAT_VERSION = 1

#: The journal file of a serving root.
JOURNAL_FILE = "wal-000.log"

#: Largest accepted record payload (a defensive bound against reading a
#: garbage length prefix as a multi-GiB allocation).
_MAX_PAYLOAD = 1 << 30


def fingerprint_of(
    features: Mapping[str, int] | list[tuple[str, int]],
    metrics: Mapping[str, str],
) -> dict:
    """The compatibility fingerprint of a database configuration.

    Journals and snapshot manifests both carry it; recovery demands
    equality before replaying.  Covers exactly what replay depends on:
    the format version, the feature names and dimensionalities (record
    decoding), and the metric names (index semantics).
    """
    items = features.items() if isinstance(features, Mapping) else features
    return {
        "version": FORMAT_VERSION,
        "features": [
            {"name": str(name), "dim": int(dim)} for name, dim in items
        ],
        "metrics": {str(name): str(metric) for name, metric in metrics.items()},
    }


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record.

    ``op`` is ``'add'``, ``'remove'``, ``'abort'``, or ``'fingerprint'``.
    Add records carry parallel ``ids``/``labels``/``names`` lists and a
    ``{feature: (n, d) float64 matrix}`` mapping; remove records carry
    ``ids``; abort records mark a sequence number whose mutation failed
    after journaling and must be skipped at replay; the fingerprint
    record (always first in a file) carries the config fingerprint.
    """

    op: str
    seq: int = 0
    ids: tuple[int, ...] = ()
    labels: tuple[str | None, ...] | None = None
    names: tuple[str, ...] | None = None
    matrices: Mapping[str, np.ndarray] = field(default_factory=dict)
    fingerprint: dict | None = None

    @classmethod
    def add(
        cls,
        seq: int,
        ids: list[int],
        matrices: Mapping[str, np.ndarray],
        labels: list[str | None] | None,
        names: list[str] | None,
    ) -> "JournalRecord":
        return cls(
            op="add",
            seq=seq,
            ids=tuple(int(i) for i in ids),
            labels=tuple(labels) if labels is not None else None,
            names=tuple(names) if names is not None else None,
            matrices={
                name: np.ascontiguousarray(matrix, dtype=np.float64)
                for name, matrix in matrices.items()
            },
        )

    @classmethod
    def remove(cls, seq: int, ids: list[int]) -> "JournalRecord":
        return cls(op="remove", seq=seq, ids=tuple(int(i) for i in ids))

    @classmethod
    def abort(cls, seq: int) -> "JournalRecord":
        return cls(op="abort", seq=seq)


def encode_record(record: JournalRecord) -> bytes:
    """Serialize a record to its on-disk bytes (prefix + CRC + payload)."""
    header: dict = {"op": record.op, "seq": record.seq}
    blocks: list[bytes] = []
    if record.op == "fingerprint":
        header["fingerprint"] = record.fingerprint
    elif record.op == "add":
        header["ids"] = list(record.ids)
        header["labels"] = list(record.labels) if record.labels is not None else None
        header["names"] = list(record.names) if record.names is not None else None
        header["features"] = []
        for name, matrix in record.matrices.items():
            rows, dim = matrix.shape
            header["features"].append({"name": name, "rows": rows, "dim": dim})
            blocks.append(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
    elif record.op == "remove":
        header["ids"] = list(record.ids)
    elif record.op != "abort":
        raise JournalError(f"unknown journal op {record.op!r}")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = _HEADER_LEN.pack(len(header_bytes)) + header_bytes + b"".join(blocks)
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> JournalRecord:
    """Inverse of :func:`encode_record` for one CRC-verified payload.

    Unknown header keys are ignored: files written before this version
    carry a ``total`` id count on add and remove records.
    """
    if len(payload) < _HEADER_LEN.size:
        raise JournalError("record payload shorter than its header length")
    (header_len,) = _HEADER_LEN.unpack_from(payload)
    header_end = _HEADER_LEN.size + header_len
    if header_end > len(payload):
        raise JournalError("record header extends past the payload")
    try:
        header = json.loads(payload[_HEADER_LEN.size : header_end])
    except json.JSONDecodeError as exc:
        raise JournalError("record header is not valid JSON") from exc
    op = header.get("op")
    seq = int(header.get("seq", 0))
    if op == "fingerprint":
        return JournalRecord(op="fingerprint", fingerprint=header.get("fingerprint"))
    if op == "remove":
        return JournalRecord.remove(seq, [int(i) for i in header.get("ids", [])])
    if op == "abort":
        return JournalRecord.abort(seq)
    if op != "add":
        raise JournalError(f"unknown journal op {op!r}")
    matrices: dict[str, np.ndarray] = {}
    offset = header_end
    for entry in header.get("features", []):
        rows, dim = int(entry["rows"]), int(entry["dim"])
        n_bytes = rows * dim * 8
        block = payload[offset : offset + n_bytes]
        if len(block) != n_bytes:
            raise JournalError(
                f"feature block {entry['name']!r} truncated inside a "
                f"checksummed record"
            )
        matrices[entry["name"]] = (
            np.frombuffer(block, dtype="<f8").reshape(rows, dim).copy()
        )
        offset += n_bytes
    labels = header.get("labels")
    names = header.get("names")
    return JournalRecord.add(
        seq,
        [int(i) for i in header.get("ids", [])],
        matrices,
        list(labels) if labels is not None else None,
        list(names) if names is not None else None,
    )


@dataclass(frozen=True)
class ScanResult:
    """What :meth:`Journal.scan` found in one journal file."""

    fingerprint: dict
    records: list[JournalRecord]
    valid_bytes: int  #: offset of the last intact record's end
    torn_bytes: int  #: trailing bytes that failed framing or checksum


class Journal:
    """One append-only journal file with checksummed records.

    The constructor opens no file: :meth:`reset` (or :meth:`create`,
    which calls it) atomically writes a fresh one — the magic and
    fingerprint record land via write-temp → fsync → rename, so a crash
    leaves either the old file or a complete empty one — and
    :meth:`open` continues an existing file (the torn tail, if any, is
    truncated first).  A serving root's journal is constructed bare and
    first written by compaction's reset, after the manifest flip, so
    the records it replaces are already in the snapshot.

    The handle is also the serving root's durability bookkeeping: the
    mutation sequence counter (:meth:`next_seq`), ``on_fsync`` (when
    set, observes each fsync's wall time — the scheduler wires it to
    the ``repro_journal_fsync_seconds`` histogram, whose count is the
    one tally of fsyncs) and
    ``replayed_records`` (what startup recovery applied).
    """

    def __init__(
        self, path: str | Path, fingerprint: dict, *, fs: FileSystem = REAL_FS
    ) -> None:
        self._path = Path(path)
        self._fingerprint = fingerprint
        self._fs = fs
        self._file: BinaryIO | None = None
        self._size = 0
        self._n_records = 0
        self._dirty = False
        self._closed = False
        self._seq = 0
        self.on_fsync: Callable[[float], None] | None = None
        self.replayed_records = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, path: str | Path, fingerprint: dict, *, fs: FileSystem = REAL_FS
    ) -> "Journal":
        """Atomically create a fresh journal holding only the fingerprint."""
        journal = cls(path, fingerprint, fs=fs)
        journal.reset()
        return journal

    @classmethod
    def open(cls, path: str | Path, *, fs: FileSystem = REAL_FS) -> "Journal":
        """Open an existing journal for appending, truncating a torn tail."""
        scan = cls.scan(path)
        journal = cls(path, scan.fingerprint, fs=fs)
        journal._file = open(journal._path, "r+b")
        if scan.torn_bytes:
            journal._file.truncate(scan.valid_bytes)
        journal._file.seek(scan.valid_bytes)
        journal._size = scan.valid_bytes
        journal._n_records = len(scan.records)
        return journal

    @staticmethod
    def scan(path: str | Path) -> ScanResult:
        """Read a journal file, stopping at the first damaged record.

        Returns the fingerprint, every intact mutation record in file
        order, the byte offset up to which the file is valid, and how
        many trailing bytes are torn.  A missing/short magic or an
        unreadable *fingerprint* record is a :class:`JournalError` —
        creation is atomic, so that is corruption, not a crash residue.
        """
        path = Path(path)
        raw = path.read_bytes()
        if len(raw) < len(_MAGIC) or raw[: len(_MAGIC)] != _MAGIC:
            raise JournalError(f"bad journal magic in {path}")
        records: list[JournalRecord] = []
        offset = len(_MAGIC)
        valid = offset
        fingerprint: dict | None = None
        while offset < len(raw):
            if offset + _PREFIX.size > len(raw):
                break  # torn length prefix
            length, crc = _PREFIX.unpack_from(raw, offset)
            if length > _MAX_PAYLOAD:
                break  # garbage prefix — treat as torn
            payload = raw[offset + _PREFIX.size : offset + _PREFIX.size + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn or bit-flipped record
            try:
                record = decode_payload(payload)
            except JournalError:
                if fingerprint is None:
                    raise  # corrupt fingerprint record: unusable file
                break  # checksummed-but-undecodable: stop, don't guess
            offset += _PREFIX.size + length
            valid = offset
            if record.op == "fingerprint":
                if fingerprint is None:
                    fingerprint = record.fingerprint or {}
                continue
            if fingerprint is None:
                raise JournalError(
                    f"journal {path} has records before its fingerprint"
                )
            records.append(record)
        if fingerprint is None:
            raise JournalError(f"journal {path} is missing its fingerprint record")
        return ScanResult(
            fingerprint=fingerprint,
            records=records,
            valid_bytes=valid,
            torn_bytes=len(raw) - valid,
        )

    def reset(self) -> None:
        """Atomically replace the file with a fresh, empty journal.

        Used after compaction: the records are in the snapshot now.  A
        plain truncate is not crash-atomic (a crash mid-truncate could
        leave a half-record at the new tail that still checksums), so
        the fresh journal is built as a temp file and renamed over —
        the same commit point every other atomic write uses.
        """
        if self._closed:
            raise JournalError(f"journal is closed: {self._path}")
        if self._file is not None:
            self._file.close()
        seed = _MAGIC + encode_record(
            JournalRecord(op="fingerprint", fingerprint=self._fingerprint)
        )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(self._path, seed, fs=self._fs)
        self._file = open(self._path, "r+b")
        self._file.seek(0, 2)
        self._size = len(seed)
        self._n_records = 0
        self._dirty = False

    def close(self) -> None:
        """Sync pending appends and close the file (idempotent)."""
        if self._closed:
            return
        self.sync()
        if self._file is not None:
            self._file.close()
        self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def root(self) -> Path:
        """The directory holding the journal (a serving root)."""
        return self._path.parent

    @property
    def fs(self) -> FileSystem:
        """The (injectable) filesystem this journal writes through."""
        return self._fs

    @property
    def fingerprint(self) -> dict:
        return self._fingerprint

    @property
    def size_bytes(self) -> int:
        """Bytes appended so far (magic + fingerprint included)."""
        return self._size

    @property
    def n_records(self) -> int:
        """Mutation records appended or recovered-into this handle."""
        return self._n_records

    @property
    def dirty(self) -> bool:
        """True when appends are buffered but not yet fsync'd."""
        return self._dirty

    # ------------------------------------------------------------------
    # Appending (scheduler worker thread only)
    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """Allocate the next mutation sequence number."""
        self._seq += 1
        return self._seq

    def append(self, record: JournalRecord, *, sync: bool = False) -> int:
        """Append one record; returns its encoded size in bytes.

        The record is *not* durable until :meth:`sync` — callers must
        not acknowledge the mutation before then (the scheduler syncs
        once per formed batch).
        """
        if self._closed:
            raise JournalError(f"journal is closed: {self._path}")
        if self._file is None:
            raise JournalError(f"journal has no file yet; call reset(): {self._path}")
        encoded = encode_record(record)
        self._fs.write(self._file, encoded)
        self._size += len(encoded)
        self._n_records += 1
        self._dirty = True
        if sync:
            self.sync()
        return len(encoded)

    def sync(self) -> float:
        """Fsync buffered appends; returns the fsync wall time in seconds.

        This is the group-commit durability point: after it returns,
        every record appended since the previous sync may be
        acknowledged.  Nothing buffered, nothing to do: returns 0.0.
        """
        if not self._dirty:
            return 0.0
        started = time.perf_counter()
        self._fs.fsync(self._file)
        elapsed = time.perf_counter() - started
        self._dirty = False
        if self.on_fsync is not None:
            self.on_fsync(elapsed)
        return elapsed

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"records={self._n_records}"
        return f"Journal(path={str(self._path)!r}, {state})"
