"""Database layer: catalog, paged feature store, buffer pool, query engine.

This subpackage turns the algorithmic pieces (features, metrics, indexes)
into an image *database*:

:class:`~repro.db.catalog.Catalog`
    Metadata records (name, size, label, user fields) keyed by image id.
:class:`~repro.db.store.FeatureStore`
    Fixed-record binary file holding one feature vector per slot, read
    through an LRU :class:`~repro.db.bufferpool.BufferPool` with exact
    hit/miss accounting (experiment F6 sweeps its capacity).
:class:`~repro.db.database.ImageDatabase`
    The facade: insert images (features are extracted according to a
    :class:`~repro.features.FeatureSchema`), build per-feature indexes
    that then absorb further ``add_image`` / ``add_vectors`` /
    ``remove`` mutations incrementally (with monotonic per-feature
    ``generation`` stamps — see ``docs/mutability.md``), run
    query-by-example / range / weighted multi-feature queries, and
    persist everything to a directory.
:mod:`~repro.db.query`
    Weighted multi-feature distance combination and rank fusion.
:mod:`~repro.db.feedback`
    Relevance feedback: Rocchio query-point movement and the
    interactive :class:`~repro.db.feedback.FeedbackSession` loop.
:mod:`~repro.db.journal` / :mod:`~repro.db.recovery`
    Crash-safe durability: a checksummed write-ahead journal
    (:class:`~repro.db.journal.Journal`, one file per serving root)
    replayed onto atomic snapshots at startup
    (:func:`~repro.db.recovery.recover` /
    :func:`~repro.db.recovery.open_serving_root`), with online
    compaction (:func:`~repro.db.recovery.compact`) — see
    ``docs/durability.md``.
"""

from repro.db.bufferpool import BufferPool
from repro.db.catalog import Catalog, ImageRecord
from repro.db.fsutil import REAL_FS, FileSystem, atomic_write_bytes
from repro.db.journal import Journal, JournalRecord, fingerprint_of
from repro.db.store import FeatureStore
from repro.db.backend import (
    BACKENDS,
    MemoryBackend,
    MmapBackend,
    VectorBackend,
    register_backend,
    resolve_backend_factory,
)
from repro.db.database import ImageDatabase
from repro.db.feedback import FeedbackSession, Rocchio
from repro.db.query import RetrievalResult, borda_fuse, reciprocal_rank_fuse
from repro.db.recovery import (
    RecoveryReport,
    compact,
    open_serving_root,
    recover,
)

__all__ = [
    "BACKENDS",
    "MemoryBackend",
    "MmapBackend",
    "VectorBackend",
    "register_backend",
    "resolve_backend_factory",
    "BufferPool",
    "Catalog",
    "ImageRecord",
    "FeatureStore",
    "ImageDatabase",
    "FeedbackSession",
    "Rocchio",
    "RetrievalResult",
    "borda_fuse",
    "reciprocal_rank_fuse",
    "FileSystem",
    "REAL_FS",
    "atomic_write_bytes",
    "Journal",
    "JournalRecord",
    "fingerprint_of",
    "RecoveryReport",
    "recover",
    "compact",
    "open_serving_root",
]
