"""Launcher: one ``QueryServer`` in its own process, built from a JSON spec.

``python3 benchmarks/e2e/server.py '<spec>'`` generates the synthetic
database from the seed, builds the index, starts the server on port 0
with the ``repro serve`` defaults (``max_batch=32, max_wait_ms=2.0,
shards=1``) and prints the bound port as the first line of stdout.  It
serves until SIGTERM/SIGINT, or until stdin closes — the harness holds
the other end, so a harness that dies takes its server with it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.workloads import dataset  # noqa: E402
from repro.db.backend import resolve_backend_factory  # noqa: E402
from repro.db.database import ImageDatabase  # noqa: E402
from repro.db.recovery import open_serving_root, read_manifest  # noqa: E402
from repro.features.base import PresetSignature  # noqa: E402
from repro.features.pipeline import FeatureSchema  # noqa: E402
from repro.index.linear import LinearScanIndex  # noqa: E402
from repro.index.vptree import VPTree  # noqa: E402
from repro.serve.http import QueryServer  # noqa: E402

INDEX_KINDS = {"vptree": VPTree, "linear": LinearScanIndex}


def serve(spec: dict) -> None:
    root = Path(spec["root"])
    backend = None
    if spec["backend"] == "mmap":
        backend = resolve_backend_factory(
            f"mmap:{root / 'mmap'}", cache_pages=spec["cache_pages"]
        )
    kind = INDEX_KINDS[spec["index"]]
    db = ImageDatabase(
        FeatureSchema([PresetSignature(spec["d"])]),
        index_factory=lambda metric: kind(metric),
        backend=backend,
    )
    journal = None
    journal_root = root / "journal"
    # A restart on a root with history recovers the acknowledged state;
    # the seed rows would be ignored, so they are not generated again.
    if not (spec["journal"] and read_manifest(journal_root) is not None):
        base, _ = dataset(spec["seed"], spec["n"], spec["d"], spec["extra"])
        db.add_vectors(base)
    if spec["journal"]:
        db, journal, _report = open_serving_root(journal_root, db)
    db.build_indexes()
    server = QueryServer(
        db,
        host="127.0.0.1",
        port=0,
        max_batch=32,
        max_wait_ms=2.0,
        cache_size=spec["cache_size"],
        shards=1,
        journal=journal,
        trace_depth=spec["trace_depth"],
    )

    def terminate(*_: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, terminate)

    def exit_with_parent() -> None:
        # Raw reads: a buffered stdin would hold its lock at shutdown.
        while os.read(0, 4096):
            pass
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=exit_with_parent, daemon=True).start()
    print(server.address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop(drain=False)


if __name__ == "__main__":
    serve(json.loads(sys.argv[1]))
