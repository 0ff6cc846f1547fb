"""Command-line interface: a content-based image database on real files.

The library's public API is Python-first, but the system the paper
describes was an end-user tool: point it at a directory of pictures,
build an index, query by example.  This module is that tool::

    python -m repro demo  corpus/            # write a synthetic PPM corpus
    python -m repro build corpus/ --db my.db # extract features + save
    python -m repro info  --db my.db         # what's inside
    python -m repro query corpus/red_scenes/red_scenes_000.ppm --db my.db -k 5
    python -m repro query-batch corpus/red_scenes/ --db my.db -k 5
    python -m repro serve --db my.db --port 8753  # HTTP query service

Images are read with the library's own codecs (PPM/PGM/BMP — the
formats a 1994 system would have spoken); each image's *label* is the
name of the directory it sits in, which makes retrieval quality
immediately eyeballable on the demo corpus.

The CLI is deliberately a thin shell over the public API — every
subcommand body is the few lines a reader would write themselves, so it
doubles as executable documentation.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.db.database import ImageDatabase
from repro.errors import ReproError
from repro.eval.harness import ascii_table
from repro.features.pipeline import FeatureSchema, default_schema
from repro.image.core import Image
from repro.image.io_bmp import read_bmp, write_bmp
from repro.image.io_ppm import read_ppm, write_ppm

__all__ = ["main", "read_image_file", "iter_image_files"]

#: File extensions the CLI recognizes, mapped to their readers.
_READERS = {
    ".ppm": read_ppm,
    ".pgm": read_ppm,  # the PPM reader handles both P2/P3 and P5/P6
    ".bmp": read_bmp,
}


def read_image_file(path: str | Path) -> Image:
    """Read one image file using the library's own codecs.

    Raises
    ------
    ReproError
        If the extension is not one of .ppm/.pgm/.bmp.
    """
    path = Path(path)
    reader = _READERS.get(path.suffix.lower())
    if reader is None:
        raise ReproError(
            f"unsupported image file {path.name!r} "
            f"(supported: {sorted(_READERS)})"
        )
    return reader(path)


def iter_image_files(root: str | Path) -> list[tuple[Path, str]]:
    """All recognized image files under ``root``, with directory labels.

    Returns ``(path, label)`` pairs sorted by path; the label is the
    immediate parent directory's name ('' for files directly in root).
    """
    root = Path(root)
    if not root.is_dir():
        raise ReproError(f"{root} is not a directory")
    found = [
        path
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.suffix.lower() in _READERS
    ]
    return [
        (path, path.parent.name if path.parent != root else "")
        for path in found
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.eval.datasets import CORPUS_CLASS_NAMES, make_class_image

    out = Path(args.directory)
    rng = np.random.default_rng(args.seed)
    written = 0
    for label in CORPUS_CLASS_NAMES:
        class_dir = out / label
        class_dir.mkdir(parents=True, exist_ok=True)
        for index in range(args.per_class):
            image = make_class_image(label, rng, size=args.size)
            name = f"{label}_{index:03d}"
            if args.format == "bmp":
                write_bmp(image, class_dir / f"{name}.bmp")
            else:
                write_ppm(image, class_dir / f"{name}.ppm")
            written += 1
    print(f"wrote {written} images ({len(CORPUS_CLASS_NAMES)} classes) to {out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    files = iter_image_files(args.directory)
    if not files:
        print(f"no images found under {args.directory}", file=sys.stderr)
        return 1
    schema = _make_schema(args.working_size)
    db = ImageDatabase(schema)
    started = time.perf_counter()
    for path, label in files:
        db.add_image(
            read_image_file(path), label=label or None, name=str(path)
        )
    extract_seconds = time.perf_counter() - started
    db.build_indexes()
    db.save(args.db)
    print(
        f"indexed {len(db)} images ({len(schema)} features, "
        f"{schema.total_dim()} dims/image) in {extract_seconds:.1f}s -> {args.db}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    db = _load(args)
    labels: dict[str, int] = {}
    for image_id in db.catalog.ids:
        label = db.catalog.get(image_id).label or "(unlabelled)"
        labels[label] = labels.get(label, 0) + 1
    rows = [[label, count] for label, count in sorted(labels.items())]
    print(ascii_table(["label", "images"], rows, title=f"database {args.db}"))
    print(f"\nfeatures: {', '.join(db.schema.names)}")
    print(f"total signature dims/image: {db.schema.total_dim()}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load(args)
    query = read_image_file(args.image)
    feature = args.feature or db.default_feature
    started = time.perf_counter()
    results = db.query(query, k=args.k, feature=feature)
    elapsed = (time.perf_counter() - started) * 1e3
    rows = [
        [r.record.name, r.record.label or "-", r.distance] for r in results
    ]
    print(
        ascii_table(
            ["image", "label", "distance"],
            rows,
            title=f"top-{args.k} by {feature} for {args.image}",
        )
    )
    stats = db.index_for(feature).last_stats
    print(
        f"\n{elapsed:.1f} ms; {stats.distance_computations} distance "
        f"computations of {len(db)} stored images "
        f"({stats.nodes_pruned} subtrees pruned)"
    )
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    db = _load(args)
    paths: list[Path] = []
    for target in args.images:
        path = Path(target)
        if path.is_dir():
            paths.extend(found for found, _label in iter_image_files(path))
        else:
            paths.append(path)
    if not paths:
        print("no query images found", file=sys.stderr)
        return 1
    images = [read_image_file(path) for path in paths]
    feature = args.feature or db.default_feature

    started = time.perf_counter()
    batches = db.query_batch(images, k=args.k, feature=feature)
    elapsed = time.perf_counter() - started

    rows = []
    for path, results in zip(paths, batches):
        best = results[0]
        rows.append([path.name, best.record.label or "-", best.record.name, best.distance])
    print(
        ascii_table(
            ["query", "best label", "best match", "distance"],
            rows,
            title=f"best of top-{args.k} by {feature} for {len(paths)} queries",
        )
    )
    stats = db.index_for(feature).last_stats
    print(
        f"\n{len(paths)} queries in {elapsed * 1e3:.1f} ms "
        f"({len(paths) / elapsed:.0f} queries/s, batched engine); "
        f"{stats.distance_computations} distance computations total"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve.http import QueryServer

    db = _load(args)
    journal = None
    if args.journal:
        from repro.db.recovery import open_serving_root

        # Recover-or-seed the durable root: replay the write-ahead
        # journal onto the last snapshot (or seed from --db on an empty
        # root), then compact so the service starts with a fresh
        # snapshot and empty logs.  See docs/durability.md.
        db, journal, report = open_serving_root(Path(args.journal), db)
        if report is not None:
            print(report.summary(), flush=True)
    db.build_indexes()  # pay the lazy builds before the first request
    access_log = None
    if args.access_log:
        from repro.serve.logsys import StructuredLog

        access_log = StructuredLog(sample_every=args.access_log_sample)
    server = QueryServer(
        db,
        host=args.host,
        port=args.port,
        access_log=access_log,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        rate_limit_qps=args.rate_limit,
        journal=journal,
        trace_depth=args.trace_depth,
        slow_query_ms=args.slow_ms,
    )
    host, port = server.address
    print(
        f"serving {len(db)} images on http://{host}:{port} "
        f"(features: {', '.join(db.schema.names)}; "
        f"max_batch={args.max_batch}, cache_size={args.cache_size}, "
        f"backend={db.backend_info()['name']}"
        + (f", rate_limit={args.rate_limit:g}/s" if args.rate_limit else "")
        + (f", journal={args.journal}" if args.journal else "")
        + (
            f", tracing={args.trace_depth} traces/slow>{args.slow_ms:g}ms"
            if args.trace_depth
            else ", tracing=off"
        )
        + (", access_log=on" if access_log else "")
        + ")",
        flush=True,
    )

    # SIGTERM (CI, process managers) and Ctrl-C both exit cleanly: break
    # out of the serving loop, settle the scheduler, report what was
    # served.  (Raising is the signal-safe way out — calling shutdown()
    # from the serving thread itself would deadlock.)  SIGTERM is the
    # graceful-shutdown path: the in-flight batch completes and its
    # mutations reach the journal, but the queued backlog fails fast
    # with HTTP 503 ("shutting_down") instead of delaying termination.
    drain = {"requests": True}

    def _terminate(*_: object) -> None:
        drain["requests"] = False
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop(drain=drain["requests"])
        stats = server.scheduler.stats()
        print(
            f"\nserved {stats.completed} requests "
            f"({stats.throughput_qps:.1f} q/s, mean batch "
            f"{stats.mean_batch_size:.1f}, cache hit rate "
            f"{stats.cache_hit_rate:.0%}); shutdown clean",
            flush=True,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClient
    from repro.serve.trace import format_trace

    client = ServiceClient(args.host, args.port)
    if args.id:
        print(format_trace(client.debug_trace(args.id)))
        return 0
    if args.slow:
        payload = client.debug_slow()
        threshold = payload.get("threshold_ms")
        print(
            f"slow-query log (threshold "
            f"{threshold:g} ms, {payload.get('captured', 0)} captured)"
            if threshold is not None
            else "slow-query log (disabled)"
        )
        for trace in payload.get("traces", [])[: args.limit]:
            print()
            print(format_trace(trace))
        return 0
    payload = client.debug_traces()
    if not payload.get("enabled", False):
        print("tracing is off (server started with --trace-depth 0)")
        return 0
    summaries = payload.get("traces", [])[: args.limit]
    rows = [
        [
            summary["trace_id"],
            summary["route"],
            summary["status"],
            f"{summary['latency_ms']:.2f}",
            summary["n_spans"],
        ]
        for summary in summaries
    ]
    print(
        ascii_table(
            ["trace id", "route", "status", "latency ms", "spans"],
            rows,
            title=f"flight recorder: newest {len(summaries)} of "
            f"{payload.get('recorded', 0)} recorded",
        )
    )
    print("\ninspect one: repro trace --id <trace_id>")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.db.recovery import recover

    schema = _make_schema(args.working_size)
    db, report = recover(Path(args.journal), schema, repair=not args.no_repair)
    print(report.summary())
    if args.export:
        db.save(args.export)
        print(f"exported {len(db)} images to {args.export}")
    if args.compact:
        from repro.db.journal import JOURNAL_FILE, Journal
        from repro.db.recovery import compact, database_fingerprint

        journal = Journal(
            Path(args.journal) / JOURNAL_FILE, database_fingerprint(db)
        )
        try:
            snapshot = compact(journal, db)
        finally:
            journal.close()
        print(f"compacted into {snapshot} (journal reset)")
    return 0


def _make_schema(working_size: int) -> FeatureSchema:
    return default_schema(working_size=working_size)


def _load(args: argparse.Namespace) -> ImageDatabase:
    backend = getattr(args, "backend", None)
    cache_pages = getattr(args, "cache_pages", None)
    if backend is not None or cache_pages is not None:
        from repro.db.backend import resolve_backend_factory

        # Resolve here so --cache-pages reaches the factory.
        backend = resolve_backend_factory(backend, cache_pages=cache_pages)
    return ImageDatabase.load(
        args.db, _make_schema(args.working_size), backend=backend
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-based image indexing (VLDB 1994 reproduction).",
    )
    parser.add_argument(
        "--working-size",
        type=int,
        default=64,
        help="square size images are resampled to before feature "
        "extraction (must match between build and query; default 64)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="write a labelled synthetic corpus as PPM/BMP files"
    )
    demo.add_argument("directory", help="output directory (one subdir per class)")
    demo.add_argument("--per-class", type=int, default=8)
    demo.add_argument("--size", type=int, default=64, help="image side in pixels")
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--format", choices=("ppm", "bmp"), default="ppm")
    demo.set_defaults(handler=_cmd_demo)

    build = commands.add_parser(
        "build", help="extract features from an image directory and save a database"
    )
    build.add_argument("directory", help="directory scanned recursively for images")
    build.add_argument("--db", required=True, help="output database directory")
    build.set_defaults(handler=_cmd_build)

    info = commands.add_parser("info", help="summarize a saved database")
    info.add_argument("--db", required=True)
    info.set_defaults(handler=_cmd_info)

    query = commands.add_parser("query", help="query a database by example image")
    query.add_argument("image", help="query image file (.ppm/.pgm/.bmp)")
    query.add_argument("--db", required=True)
    query.add_argument("-k", type=int, default=10)
    query.add_argument(
        "--feature", default=None, help="feature to search (default: schema's first)"
    )
    query.set_defaults(handler=_cmd_query)

    query_batch = commands.add_parser(
        "query-batch",
        help="query a database with many example images in one batched pass",
    )
    query_batch.add_argument(
        "images",
        nargs="+",
        help="query image files and/or directories (scanned recursively)",
    )
    query_batch.add_argument("--db", required=True)
    query_batch.add_argument("-k", type=int, default=5)
    query_batch.add_argument(
        "--feature", default=None, help="feature to search (default: schema's first)"
    )
    query_batch.set_defaults(handler=_cmd_query_batch)

    serve = commands.add_parser(
        "serve",
        help="serve a database over HTTP with micro-batch coalescing "
        "(POST /query, POST /range, POST /add, POST /remove, "
        "POST /save, GET /stats, GET /metrics, GET /healthz, "
        "GET /debug/traces|trace|slow)",
        epilog="The service mutates in place: POST /add and POST /remove "
        "serialize with query batches and cached results are "
        "generation-stamped, so a stale answer is never served. "
        "With --journal DIR every acknowledged mutation is durable: "
        "mutations are written to a checksummed write-ahead log before "
        "their futures resolve, startup replays the log onto the last "
        "atomic snapshot (kill -9 loses nothing acknowledged), and "
        "POST /save compacts online (docs/durability.md). "
        "On SIGTERM the in-flight batch completes and queued requests "
        "fail fast with HTTP 503; Ctrl-C drains fully. Both print a "
        "traffic summary and exit with code 0. "
        "Full protocol and knob semantics: docs/serving.md "
        "(mutation design: docs/mutability.md).",
    )
    serve.add_argument("--db", required=True, help="saved database directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8753,
        help="listen port (0 picks a free port, printed at startup)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most queued requests the worker drains into one batch "
        "(default 32)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU result-cache entries; 0 disables (default 1024)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="QPS",
        help="token-bucket admission limit in requests/s; throttled "
        "submissions get HTTP 429 (default: unlimited)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="durable serving root: write-ahead journal + atomic "
        "snapshots; on restart the journal is replayed onto the last "
        "snapshot, so acknowledged mutations survive kill -9 "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--trace-depth",
        type=int,
        default=256,
        metavar="N",
        help="flight-recorder capacity: the newest N request traces are "
        "kept for GET /debug/traces and repro trace; 0 disables "
        "tracing entirely (default 256)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="requests at/above this end-to-end latency are also kept "
        "in the slow-query log (GET /debug/slow; default 100.0)",
    )
    serve.add_argument(
        "--access-log",
        action="store_true",
        help="emit one structured JSON line per handled request to "
        "stderr (method, path, status, latency, trace id), sampled "
        "with --access-log-sample and rate-limited",
    )
    serve.add_argument(
        "--access-log-sample",
        type=int,
        default=1,
        metavar="N",
        help="with --access-log, keep 1 request line in N (default 1)",
    )
    serve.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="vector storage backend: 'memory' (default) or 'mmap' / "
        "'mmap:ROOT' to page index cores through a bounded buffer pool "
        "on disk, so databases larger than RAM serve with bounded "
        "resident memory (docs/storage.md; env REPRO_BACKEND)",
    )
    serve.add_argument(
        "--cache-pages",
        type=int,
        default=None,
        metavar="N",
        help="buffer-pool pages per mmap store — the resident-memory "
        "cap; ignored by the memory backend (default 8; env "
        "REPRO_CACHE_PAGES)",
    )
    serve.set_defaults(handler=_cmd_serve)

    trace_cmd = commands.add_parser(
        "trace",
        help="inspect a serving process's request traces "
        "(GET /debug/traces, /debug/trace?id=, /debug/slow)",
        epilog="With no flags, lists the flight recorder's newest traces. "
        "--id renders one trace as a per-stage waterfall (offsets, "
        "durations, distance computations). --slow renders "
        "the slow-query log. The trace id is returned by every query "
        "response (X-Repro-Trace-Id header and trace_id field). "
        "See docs/observability.md.",
    )
    trace_cmd.add_argument("--host", default="127.0.0.1")
    trace_cmd.add_argument("--port", type=int, default=8753)
    trace_cmd.add_argument(
        "--id", default=None, metavar="TRACE_ID", help="render one trace by id"
    )
    trace_cmd.add_argument(
        "--slow",
        action="store_true",
        help="render the slow-query log instead of the recorder listing",
    )
    trace_cmd.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="most traces to list/render (default 20)",
    )
    trace_cmd.set_defaults(handler=_cmd_trace)

    recover_cmd = commands.add_parser(
        "recover",
        help="replay a durable serving root's write-ahead journal and "
        "report (optionally export or compact) the recovered state",
        epilog="Recovery loads the snapshot the MANIFEST points at and "
        "replays every intact journal record onto it; a torn tail "
        "(interrupted write) is detected by checksum and truncated. "
        "A root written by a different feature configuration is "
        "refused rather than misread. See docs/durability.md.",
    )
    recover_cmd.add_argument(
        "--journal", required=True, metavar="DIR", help="the durable serving root"
    )
    recover_cmd.add_argument(
        "--export",
        default=None,
        metavar="DIR",
        help="save the recovered database to this directory "
        "(loadable with --db)",
    )
    recover_cmd.add_argument(
        "--compact",
        action="store_true",
        help="fold the journal into a fresh snapshot and reset the logs",
    )
    recover_cmd.add_argument(
        "--no-repair",
        action="store_true",
        help="inspect only: leave a detected torn tail on disk",
    )
    recover_cmd.set_defaults(handler=_cmd_recover)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
