"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subclasses mark
the subsystem that failed; they carry no extra state beyond the message.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ImageError",
    "CodecError",
    "FeatureError",
    "MetricError",
    "IndexingError",
    "StoreError",
    "JournalError",
    "RecoveryError",
    "CatalogError",
    "QueryError",
    "ServeError",
    "RateLimitError",
    "ShuttingDownError",
    "QueueFullError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ImageError(ReproError):
    """Invalid image data, shape, dtype, or value range."""


class CodecError(ImageError):
    """Malformed or unsupported image file content (PPM/PGM/BMP codecs)."""


class FeatureError(ReproError):
    """Feature extraction failed or an extractor was misconfigured."""


class MetricError(ReproError):
    """A distance function received incompatible or invalid operands."""


class IndexingError(ReproError):
    """An index structure was misused (empty build, bad parameters, ...)."""


class StoreError(ReproError):
    """The paged feature store or buffer pool detected corruption/misuse."""


class JournalError(StoreError):
    """The write-ahead journal was misused or its file is unreadable.

    Torn *tail* records are not errors — they are the expected residue
    of a crash and are silently truncated at replay.  This error marks
    damage recovery must not paper over: a corrupt header, an unreadable
    fingerprint record, an append to a closed journal.
    """


class RecoveryError(ReproError):
    """Startup recovery refused to replay a journal.

    Raised when the journal/snapshot directory is inconsistent in a way
    replay cannot safely resolve: a fingerprint (format version +
    feature configuration) mismatch between journal, snapshot, and the
    serving schema, a journal that references a snapshot that is gone,
    or corruption before the tail.  The alternative — replaying anyway —
    would corrupt state silently, so this is always a hard stop.
    """


class CatalogError(ReproError):
    """Catalog lookups/insertions failed (unknown id, duplicate id, ...)."""


class QueryError(ReproError):
    """A database query was malformed (unknown feature, bad weights, ...)."""


class ServeError(ReproError):
    """The query service refused a request (queue full, closed, bad HTTP)."""


class RateLimitError(ServeError):
    """The service's token bucket is empty; retry after a backoff.

    Distinct from :class:`QueueFullError` so clients can tell
    *throttled* (slow down) from *overloaded* (shed load); the HTTP
    front end maps it to status 429 instead of 503.
    """


class ShuttingDownError(ServeError):
    """The scheduler is shutting down and refused the request.

    Raised at submission once :meth:`QueryScheduler.close` has begun,
    and set on already-queued futures when the close abandons the queue
    (``drain=False`` — the SIGTERM path) instead of serving it out.
    Distinct from queue-full so clients know a retry against *this*
    process is pointless; the HTTP front end maps it to 503 with a
    ``"shutting_down": true`` body.
    """


class QueueFullError(ServeError):
    """The bounded admission queue is full; the service is overloaded.

    Backpressure instead of unbounded memory: shed load or retry later.
    The HTTP front end maps it to a plain 503 (no ``shutting_down``
    flag — this process will serve again once the queue drains).
    """
