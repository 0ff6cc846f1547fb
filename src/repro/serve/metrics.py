"""Operational metrics: log-spaced histograms, counters, gauges, Prometheus text.

The :class:`~repro.serve.stats.ServiceStats` snapshot answers "how is
the service doing right now" for a human; this module is the machine
counterpart — the fixed-cost, scrape-oriented surface a fleet monitor
watches — and the store both are read from (``/stats`` is a view over
these families; see ``repro.serve.ledger``).  Everything is plain
stdlib + O(1) per observation:

* :class:`LatencyHistogram` — fixed **log-spaced** buckets (each bound
  double the last), so one array of integers covers 100 µs to ~3 s with
  constant relative error and no per-request allocation.  Cumulative
  bucket counts follow Prometheus histogram semantics (``le`` upper
  bounds, ``+Inf`` implicit in ``count``).
* :class:`CounterFamily`, :class:`GaugeFamily`,
  :class:`HistogramFamily` — labelled metric families with one fixed
  label schema each (``route=...``, ``outcome=...``).
* :class:`MetricsRegistry` — owns the families and renders the standard
  `Prometheus text exposition format
  <https://prometheus.io/docs/instrumenting/exposition_formats/>`_, the
  body of the HTTP front end's ``GET /metrics``.

The service's ledger owns one registry and feeds it on the hot path
(one lock plus one integer increment per observation); scrape-time
values that already live elsewhere (queue depth, item count, cache
counters) are set as gauges immediately before rendering rather than
double-counted.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.errors import ServeError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "LatencyHistogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "read_process_stats",
    "parse_exposition",
    "validate_exposition",
]

#: Log-spaced latency bounds in seconds: 100 µs doubling to ~3.3 s.
#: 16 buckets cover a cache hit (~0.1 ms) to a badly saturated queue
#: with ~2x relative resolution everywhere in between.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-4 * (2.0**i) for i in range(16)
)

#: Log-spaced size bounds (requests per formed batch / group).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _format_value(value: float | int) -> str:
    """Prometheus sample value: integers bare, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    body = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(names, values)
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class LatencyHistogram:
    """Fixed-bucket histogram: O(1) observe, cumulative-count snapshot.

    Parameters
    ----------
    buckets:
        Ascending upper bounds (``le`` values).  The overflow bucket
        (``+Inf``) is implicit; :attr:`count` includes it.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = [float(bound) for bound in buckets]
        if not bounds:
            raise ServeError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ServeError(f"bucket bounds must be strictly ascending: {bounds}")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def bounds(self) -> list[float]:
        """The bucket upper bounds (ascending, ``+Inf`` implicit)."""
        return list(self._bounds)

    @property
    def count(self) -> int:
        """Total observations (all buckets, overflow included)."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def observe(self, value: float) -> None:
        """Record one value into its bucket."""
        value = float(value)
        slot = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bound (Prometheus ``le`` semantics),
        *excluding* the implicit ``+Inf`` bucket (that one is
        :attr:`count`)."""
        with self._lock:
            out = []
            running = 0
            for count in self._counts[:-1]:
                running += count
                out.append(running)
            return out


class _Family:
    """Shared shape of one named metric family with fixed label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ServeError(
                f"metric {self.name} takes labels {list(self.label_names)}; "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _ScalarFamily(_Family):
    """One number per label combination (what counters and gauges share)."""

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def value(self, **labels: str) -> float:
        """Current value for one label combination (0 if never touched)."""
        return self._values.get(self._key(labels), 0)

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._values):
                lines.append(
                    f"{self.name}{_format_labels(self.label_names, key)} "
                    f"{_format_value(self._values[key])}"
                )
        return lines


class CounterFamily(_ScalarFamily):
    """Monotonic counters, one per label combination."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def total(self) -> int:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def render(self) -> list[str]:
        lines = super().render()
        if not self._values and not self.label_names:
            lines.append(f"{self.name} 0")  # an untouched bare counter reads 0
        return lines


class GaugeFamily(_ScalarFamily):
    """Point-in-time values, one per label combination."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value


class HistogramFamily(_Family):
    """One :class:`LatencyHistogram` per label combination."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        self._buckets = tuple(float(bound) for bound in buckets)
        self._histograms: dict[tuple[str, ...], LatencyHistogram] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = LatencyHistogram(self._buckets)
        histogram.observe(value)

    def totals(self, **labels: str) -> tuple[int, float]:
        """``(count, sum)`` for one label combination; zeros if never observed."""
        histogram = self._histograms.get(self._key(labels))
        return (histogram.count, histogram.sum) if histogram else (0, 0.0)

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._histograms.items())
        for key, histogram in items:
            cumulative = histogram.cumulative()
            for bound, running in zip(histogram.bounds, cumulative):
                labels = _format_labels(
                    self.label_names + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {running}")
            inf_labels = _format_labels(self.label_names + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{inf_labels} {histogram.count}")
            plain = _format_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(histogram.sum)}")
            lines.append(f"{self.name}_count{plain} {histogram.count}")
        return lines


class MetricsRegistry:
    """Owns metric families in registration order; renders exposition text.

    The scheduler registers its families once at construction and holds
    direct references for the hot path; :meth:`render` walks the
    registry for ``GET /metrics``.
    """

    #: Content type of the rendered exposition body.
    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def counter(
        self, name: str, help_text: str, label_names: Sequence[str] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily(name, help_text, label_names))

    def gauge(
        self, name: str, help_text: str, label_names: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._register(GaugeFamily(name, help_text, label_names))

    def histogram(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        return self._register(
            HistogramFamily(name, help_text, label_names, buckets)
        )

    def _register(self, family: _Family) -> "_Family":
        with self._lock:
            if family.name in self._families:
                raise ServeError(f"metric {family.name!r} is already registered")
            self._families[family.name] = family
        return family

    def render(self) -> str:
        """The Prometheus text exposition body (trailing newline included)."""
        with self._lock:
            families = list(self._families.values())
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Process-level resource figures (GET /metrics gauges)
# ---------------------------------------------------------------------------
def read_process_stats() -> dict:
    """Point-in-time resource figures for this process.

    Returns ``rss_bytes`` (resident set size), ``open_fds`` (open file
    descriptors), ``threads`` (live Python threads), and
    ``gc_collections`` (completed collections per GC generation).  Reads
    ``/proc/self`` where available (Linux); elsewhere RSS falls back to
    ``resource.getrusage`` peak-RSS (the closest portable figure) and
    ``open_fds`` to 0.  Never raises: a figure that cannot be read
    reports 0 rather than failing a metrics scrape.
    """
    rss_bytes = 0
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    rss_bytes = int(line.split()[1]) * 1024  # kB field
                    break
    except (OSError, ValueError, IndexError):
        try:
            import resource

            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is bytes on macOS, kilobytes on Linux.
            rss_bytes = int(peak) if sys.platform == "darwin" else int(peak) * 1024
        except Exception:
            rss_bytes = 0
    try:
        open_fds = len(os.listdir("/proc/self/fd"))
    except OSError:
        open_fds = 0
    return {
        "rss_bytes": rss_bytes,
        "open_fds": open_fds,
        "threads": threading.active_count(),
        "gc_collections": [
            int(generation.get("collections", 0)) for generation in gc.get_stats()
        ],
    }


# ---------------------------------------------------------------------------
# Exposition-format parsing + validation (tests, CI live-scrape check)
# ---------------------------------------------------------------------------
def _parse_label_block(block: str, line: str) -> dict[str, str]:
    """Parse ``name="value",...`` with the \\\\, \\", \\n escapes."""
    labels: dict[str, str] = {}
    i = 0
    while i < len(block):
        eq = block.find("=", i)
        if eq < 0:
            raise ServeError(f"malformed label block in line: {line!r}")
        name = block[i:eq].strip()
        if not name or block[eq + 1 : eq + 2] != '"':
            raise ServeError(f"malformed label block in line: {line!r}")
        value_chars: list[str] = []
        j = eq + 2
        while j < len(block):
            char = block[j]
            if char == "\\":
                if j + 1 >= len(block):
                    raise ServeError(f"dangling escape in line: {line!r}")
                escaped = block[j + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, "\\" + escaped)
                )
                j += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            j += 1
        else:
            raise ServeError(f"unterminated label value in line: {line!r}")
        if name in labels:
            raise ServeError(f"duplicate label {name!r} in line: {line!r}")
        labels[name] = "".join(value_chars)
        i = j + 1
        if i < len(block):
            if block[i] != ",":
                raise ServeError(f"malformed label separator in line: {line!r}")
            i += 1
    return labels


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse Prometheus text format 0.0.4 into families.

    Returns ``{family_name: {"help": str, "type": str, "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Raises
    :class:`~repro.errors.ServeError` on grammatical violations: a
    sample before its ``# TYPE``, a malformed label block, a
    non-numeric value.  Semantic histogram checks live in
    :func:`validate_exposition`.
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str | None:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                return base
        return sample_name if sample_name in families else None

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ServeError(f"malformed HELP line: {line!r}")
            name, help_text = parts[2], parts[3]
            entry = families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            if entry["help"] is not None:
                raise ServeError(f"duplicate HELP for {name!r}")
            entry["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ServeError(f"malformed TYPE line: {line!r}")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ServeError(f"unknown metric type {kind!r} in line: {line!r}")
            entry = families.setdefault(
                name, {"help": None, "type": None, "samples": []}
            )
            if entry["type"] is not None:
                raise ServeError(f"duplicate TYPE for {name!r}")
            if entry["samples"]:
                raise ServeError(f"TYPE for {name!r} appears after its samples")
            entry["type"] = kind
            continue
        if line.startswith("#"):
            continue  # plain comment
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ServeError(f"unbalanced braces in line: {line!r}")
            sample_name = line[:brace]
            labels = _parse_label_block(line[brace + 1 : close], line)
            value_text = line[close + 1 :].strip()
        else:
            pieces = line.split()
            if len(pieces) not in (2, 3):  # optional trailing timestamp
                raise ServeError(f"malformed sample line: {line!r}")
            sample_name, value_text = pieces[0], pieces[1]
            labels = {}
        try:
            value = float(value_text.split()[0])
        except (ValueError, IndexError):
            raise ServeError(f"non-numeric sample value in line: {line!r}") from None
        base = family_of(sample_name)
        if base is None or families[base]["type"] is None:
            raise ServeError(
                f"sample {sample_name!r} has no preceding # TYPE declaration"
            )
        families[base]["samples"].append((sample_name, labels, value))
    return families


def validate_exposition(text: str) -> dict[str, dict]:
    """Parse *and* semantically validate an exposition body.

    On top of :func:`parse_exposition`'s grammar checks, enforces per
    family: HELP and TYPE both present; counter/gauge samples use the
    bare family name with no duplicate label sets; histograms have
    strictly ascending finite ``le`` bounds, non-decreasing cumulative
    bucket counts, a ``+Inf`` bucket exactly equal to ``_count``, and a
    ``_sum`` per label set.  Returns the parsed families (so tests can
    roundtrip values); raises :class:`~repro.errors.ServeError` on the
    first violation.  The CI serve smoke runs this against a live
    ``GET /metrics`` scrape.
    """
    families = parse_exposition(text)
    for name, entry in families.items():
        if entry["help"] is None:
            raise ServeError(f"family {name!r} has no # HELP line")
        if entry["type"] is None:
            raise ServeError(f"family {name!r} has no # TYPE line")
        if entry["type"] in ("counter", "gauge"):
            seen: set[tuple] = set()
            for sample_name, labels, _value in entry["samples"]:
                if sample_name != name:
                    raise ServeError(
                        f"{entry['type']} family {name!r} has stray sample "
                        f"{sample_name!r}"
                    )
                key = tuple(sorted(labels.items()))
                if key in seen:
                    raise ServeError(
                        f"duplicate sample {sample_name!r} labels {labels!r}"
                    )
                seen.add(key)
        elif entry["type"] == "histogram":
            series: dict[tuple, dict] = {}
            for sample_name, labels, value in entry["samples"]:
                plain = {k: v for k, v in labels.items() if k != "le"}
                key = tuple(sorted(plain.items()))
                slot = series.setdefault(key, {"buckets": [], "sum": None, "count": None})
                if sample_name == f"{name}_bucket":
                    if "le" not in labels:
                        raise ServeError(f"bucket sample without le: {labels!r}")
                    slot["buckets"].append((labels["le"], value))
                elif sample_name == f"{name}_sum":
                    slot["sum"] = value
                elif sample_name == f"{name}_count":
                    slot["count"] = value
                else:
                    raise ServeError(
                        f"histogram family {name!r} has stray sample {sample_name!r}"
                    )
            for key, slot in series.items():
                if slot["count"] is None or slot["sum"] is None:
                    raise ServeError(
                        f"histogram {name!r} series {dict(key)!r} missing _sum/_count"
                    )
                bounds: list[float] = []
                counts: list[float] = []
                inf_count = None
                for le_text, value in slot["buckets"]:
                    if le_text == "+Inf":
                        inf_count = value
                        continue
                    try:
                        bounds.append(float(le_text))
                    except ValueError:
                        raise ServeError(
                            f"histogram {name!r} has non-numeric le {le_text!r}"
                        ) from None
                    counts.append(value)
                if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                    raise ServeError(
                        f"histogram {name!r} le bounds not ascending: {bounds}"
                    )
                if any(c2 < c1 for c1, c2 in zip(counts, counts[1:])):
                    raise ServeError(
                        f"histogram {name!r} bucket counts not cumulative: {counts}"
                    )
                if inf_count is None:
                    raise ServeError(
                        f"histogram {name!r} series {dict(key)!r} has no +Inf bucket"
                    )
                if counts and counts[-1] > inf_count:
                    raise ServeError(
                        f"histogram {name!r} finite buckets exceed +Inf: "
                        f"{counts[-1]} > {inf_count}"
                    )
                if inf_count != slot["count"]:
                    raise ServeError(
                        f"histogram {name!r} +Inf bucket {inf_count} != _count "
                        f"{slot['count']}"
                    )
    return families
