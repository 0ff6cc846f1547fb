"""The tracing subsystem's contracts: spans, recorder, slow log.

Pinned guarantees (see ``repro/serve/trace.py`` and the scheduler's
trace plumbing):

* **traceparent handling** — a valid W3C header donates its trace id;
  anything malformed yields a fresh id (a bad header never fails a
  request);
* **exact cost attribution** — the engine span's
  ``distance_computations`` is precisely the request's reported
  ``SearchStats``;
* **span-sum sanity** — the span durations sum to within the trace's end-to-end latency (stages are recorded
  back-to-back on one worker);
* **bounded sinks** — the flight recorder is a true ring (old traces
  fall off), the slow log captures by threshold and survives fast
  churn, and ``trace_depth=0`` disables everything.
"""

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve.scheduler import QueryScheduler
from repro.serve.trace import (
    FlightRecorder,
    SlowQueryLog,
    Trace,
    format_trace,
    parse_traceparent,
)

_DIM = 8
_N = 96


@pytest.fixture
def vector_db(rng):
    db = ImageDatabase(FeatureSchema([PresetSignature(_DIM, "sig")]))
    db.add_vectors(rng.random((_N, _DIM)))
    db.build_indexes()
    return db


# ---------------------------------------------------------------------------
# traceparent parsing
# ---------------------------------------------------------------------------
class TestParseTraceparent:
    def test_valid_header(self):
        parsed = parse_traceparent(
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
        )
        assert parsed == (
            "4bf92f3577b34da6a3ce929d0e0e4736",
            "00f067aa0ba902b7",
        )

    def test_case_and_whitespace_normalized(self):
        parsed = parse_traceparent(
            "  00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01  "
        )
        assert parsed is not None
        assert parsed[0] == "4bf92f3577b34da6a3ce929d0e0e4736"

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",  # 3 parts
            "00-short-00f067aa0ba902b7-01",
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
            "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  # ver ff
            "00-" + "0" * 32 + "-00f067aa0ba902b7-01",  # all-zero trace
            "00-4bf92f3577b34da6a3ce929d0e0e4736-" + "0" * 16 + "-01",
        ],
    )
    def test_invalid_headers_yield_none(self, header):
        assert parse_traceparent(header) is None

    def test_trace_generates_fresh_id_for_bad_header(self):
        trace = Trace("knn", traceparent="garbage")
        assert len(trace.trace_id) == 32
        assert trace.parent_id is None

    def test_trace_adopts_good_header(self):
        trace = Trace(
            "knn",
            traceparent="00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
        )
        assert trace.trace_id == "4bf92f3577b34da6a3ce929d0e0e4736"
        assert trace.parent_id == "00f067aa0ba902b7"


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TestSinks:
    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(depth=3)
        traces = []
        for index in range(5):
            trace = Trace(f"knn")
            trace.annotate(index=index)
            trace.finish()
            recorder.record(trace)
            traces.append(trace)
        kept = recorder.traces()
        assert len(kept) == 3
        assert [t.annotations["index"] for t in kept] == [4, 3, 2]
        assert recorder.recorded == 5
        assert recorder.find(traces[0].trace_id) is None
        assert recorder.find(traces[4].trace_id) is traces[4]

    def test_depth_zero_disables(self):
        recorder = FlightRecorder(depth=0)
        assert not recorder.enabled
        trace = Trace("knn")
        trace.finish()
        recorder.record(trace)
        assert len(recorder) == 0 and recorder.recorded == 0

    def test_slow_log_threshold(self):
        slow = SlowQueryLog(threshold_s=0.05, depth=4)
        fast, slow_trace = Trace("knn"), Trace("knn")
        fast.finish()
        fast.latency_s = 0.01
        slow_trace.finish()
        slow_trace.latency_s = 0.08
        assert not slow.offer(fast)
        assert slow.offer(slow_trace)
        assert slow.captured == 1
        assert slow.traces() == [slow_trace]

    def test_slow_log_disabled_with_none(self):
        slow = SlowQueryLog(threshold_s=None)
        trace = Trace("knn")
        trace.finish()
        trace.latency_s = 999.0
        assert not slow.offer(trace)

    def test_finish_is_idempotent(self):
        trace = Trace("knn")
        assert trace.finish("ok")
        first_latency = trace.latency_s
        assert not trace.finish("error")
        assert trace.status == "ok"
        assert trace.latency_s == first_latency

    def test_negative_durations_clamped(self):
        trace = Trace("knn")
        trace.add_span("engine", 1.0, -0.5)
        assert trace.spans[0].duration_s == 0.0


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------
class TestSchedulerTracing:
    def test_query_trace_shape_and_exact_cost(self, vector_db, rng):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            served = scheduler.submit_query(rng.random(_DIM), 5).result(5)
            trace = scheduler.flight_recorder.find(served.trace_id)
            assert trace is not None and trace.finished
            assert trace.status == "ok"
            assert trace.stage_names() == [
                "admit",
                "cache-lookup",
                "queue-wait",
                "batch-form",
                "engine",
                "respond",
            ]
            engine_spans = [s for s in trace.spans if s.stage == "engine"]
            assert sum(
                s.annotations["distance_computations"] for s in engine_spans
            ) == served.stats.distance_computations

    def test_span_durations_sum_within_latency(self, vector_db, rng):
        # Every stage runs back-to-back on one worker, so the spans
        # partition (a subset of) the request's wall time.
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            served = scheduler.submit_query(rng.random(_DIM), 5).result(5)
            trace = scheduler.flight_recorder.find(served.trace_id)
            span_sum = sum(span.duration_s for span in trace.spans)
            assert span_sum <= trace.latency_s + 1e-9

    def test_cache_hit_trace_shape(self, vector_db, rng):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            vector = rng.random(_DIM)
            scheduler.submit_query(vector, 5).result(5)
            hit = scheduler.submit_query(vector, 5).result(5)
            assert hit.cache_hit
            trace = scheduler.flight_recorder.find(hit.trace_id)
            assert trace.stage_names() == ["admit", "cache-lookup"]
            lookup = trace.spans[-1]
            assert lookup.annotations["hit"] is True
            assert trace.annotations.get("cache_hit") is True

    def test_mutation_trace_includes_journal_spans(self, vector_db, rng, tmp_path):
        from repro.db.journal import JOURNAL_FILE, Journal
        from repro.db.recovery import database_fingerprint

        journal = Journal.create(
            tmp_path / JOURNAL_FILE, database_fingerprint(vector_db)
        )
        with QueryScheduler(
            vector_db, journal=journal, max_wait_ms=0.5
        ) as scheduler:
            applied = scheduler.submit_add(rng.random((2, _DIM))).result(5)
            trace = scheduler.flight_recorder.find(applied.trace_id)
            stages = trace.stage_names()
            assert "journal-append" in stages
            assert "journal-fsync" in stages
            assert stages.index("journal-append") < stages.index("apply")
            assert stages[-1] == "respond"

    def test_unjournaled_mutation_trace(self, vector_db, rng):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            applied = scheduler.submit_add(rng.random((2, _DIM))).result(5)
            trace = scheduler.flight_recorder.find(applied.trace_id)
            assert trace.stage_names() == [
                "queue-wait",
                "batch-form",
                "apply",
                "respond",
            ]

    def test_trace_depth_zero_disables_everything(self, vector_db, rng):
        with QueryScheduler(vector_db, trace_depth=0) as scheduler:
            assert not scheduler.tracing_enabled
            assert scheduler.new_trace("knn") is None
            served = scheduler.submit_query(rng.random(_DIM), 5).result(5)
            assert served.trace_id is None
            assert len(scheduler.flight_recorder) == 0

    def test_failed_mutation_finishes_trace_with_error(self, vector_db):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            future = scheduler.submit_remove([999_999])
            with pytest.raises(Exception):
                future.result(5)
            statuses = [t.status for t in scheduler.flight_recorder.traces()]
            assert "error" in statuses

    def test_slow_query_captured_under_injected_stall(self, vector_db, rng):
        with QueryScheduler(
            vector_db, max_wait_ms=0.5, slow_query_ms=5.0
        ) as scheduler:
            original = vector_db.query_batch

            def stalled(*args, **kwargs):
                import time as _time

                _time.sleep(0.02)
                return original(*args, **kwargs)

            vector_db.query_batch = stalled
            try:
                served = scheduler.submit_query(rng.random(_DIM), 5).result(5)
            finally:
                del vector_db.query_batch
            slow = scheduler.slow_log.traces()
            assert any(t.trace_id == served.trace_id for t in slow)
            assert scheduler.slow_log.captured >= 1

    def test_stage_histogram_populated(self, vector_db, rng):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            scheduler.submit_query(rng.random(_DIM), 5).result(5)
            text = scheduler.render_metrics()
            assert 'repro_stage_seconds_count{stage="engine"}' in text
            assert 'repro_stage_seconds_count{stage="queue-wait"}' in text


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
class TestFormatTrace:
    def test_waterfall_renders_all_spans(self, vector_db, rng):
        with QueryScheduler(vector_db, max_wait_ms=0.5) as scheduler:
            served = scheduler.submit_query(rng.random(_DIM), 5).result(5)
            trace = scheduler.flight_recorder.find(served.trace_id)
            rendered = format_trace(trace.to_dict())
            assert served.trace_id in rendered
            for stage in trace.stage_names():
                assert stage in rendered
            assert "distance_computations=" in rendered

    def test_empty_trace_renders(self):
        assert "no spans" in format_trace({"trace_id": "x", "spans": []})
