"""Exposition parser/validator: render → parse must be the identity.

The registry's ``render`` and the parser in the same module are
independent implementations of Prometheus text format 0.0.4; this file
pins them against each other.  Roundtrip tests cover the escaping
corners (backslash, quote, newline in label values); the negative
cases pin that the validator actually rejects malformed and
semantically broken expositions — it guards the CI live-scrape check,
so a lenient validator would be worse than none.
"""

import numpy as np
import pytest

from repro.db.database import ImageDatabase
from repro.db.recovery import open_serving_root
from repro.errors import CatalogError, QueueFullError, RateLimitError, ServeError
from repro.features.base import PresetSignature
from repro.features.pipeline import FeatureSchema
from repro.serve.metrics import (
    MetricsRegistry,
    parse_exposition,
    read_process_stats,
    validate_exposition,
)
from repro.serve.client import ServiceClient
from repro.serve.http import QueryServer
from repro.serve.scheduler import QueryScheduler


class TestRoundtrip:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        requests = registry.counter("reqs_total", "requests", ("route",))
        depth = registry.gauge("queue_depth", "queue depth")
        requests.inc(3, route="knn")
        requests.inc(1, route="range")
        depth.set(7.5)
        families = validate_exposition(registry.render())
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["reqs_total"]["samples"]
        }
        assert samples[("reqs_total", (("route", "knn"),))] == 3.0
        assert samples[("reqs_total", (("route", "range"),))] == 1.0
        assert families["queue_depth"]["samples"] == [("queue_depth", {}, 7.5)]
        assert families["reqs_total"]["type"] == "counter"
        assert families["queue_depth"]["help"] == "queue depth"

    def test_histogram_roundtrip_preserves_buckets(self):
        registry = MetricsRegistry()
        latency = registry.histogram(
            "lat_seconds", "latency", ("route",), buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.5, 5.0):
            latency.observe(value, route="knn")
        families = validate_exposition(registry.render())
        buckets = {
            labels["le"]: value
            for name, labels, value in families["lat_seconds"]["samples"]
            if name == "lat_seconds_bucket"
        }
        assert buckets["0.01"] == 1.0
        assert buckets["0.1"] == 2.0
        assert buckets["1"] == 3.0
        assert buckets["+Inf"] == 4.0
        count = next(
            value
            for name, _labels, value in families["lat_seconds"]["samples"]
            if name == "lat_seconds_count"
        )
        assert count == 4.0

    def test_label_escaping_roundtrips(self):
        registry = MetricsRegistry()
        weird = registry.counter("weird_total", "weird labels", ("path",))
        value = 'a"b\\c\nnewline'
        weird.inc(2, path=value)
        families = parse_exposition(registry.render())
        ((_name, labels, count),) = families["weird_total"]["samples"]
        assert labels["path"] == value
        assert count == 2.0

    def test_live_scheduler_render_validates(self, rng):
        db = ImageDatabase(FeatureSchema([PresetSignature(8, "sig")]))
        db.add_vectors(rng.random((48, 8)))
        db.build_indexes()
        with QueryScheduler(db, max_wait_ms=0.5) as scheduler:
            scheduler.submit_query(rng.random(8), 4).result(5)
            families = validate_exposition(scheduler.render_metrics())
        assert "repro_requests_total" in families
        assert "repro_stage_seconds" in families
        assert "repro_process" in families
        assert "repro_process_gc_collections" in families


class TestOneLedger:
    """``GET /stats`` is a view over the families ``GET /metrics`` renders."""

    @staticmethod
    def _stats_from_exposition(text: str) -> dict:
        """Every ``/stats`` counter, re-derived from the exposition alone."""
        flat: dict[str, float] = {}
        for family in parse_exposition(text).values():
            for name, labels, value in family["samples"]:
                if not name.endswith("_bucket"):
                    key = ",".join(labels[k] for k in sorted(labels))
                    flat[f"{name}{{{key}}}"] = value

        def total(prefix: str, *keys: str) -> float:
            return sum(flat.get(f"{prefix}{{{key}}}", 0.0) for key in keys)

        def mean(prefix: str) -> float:
            count = flat.get(prefix + "_count{}", 0.0)
            return flat.get(prefix + "_sum{}", 0.0) / count if count else 0.0

        latency = "repro_request_latency_seconds_count"
        derived = {
            "submitted": sum(
                value for name, value in flat.items()
                if name.startswith("repro_requests_total{")
            ),
            "completed": total(latency, "knn", "range"),
            "mutations": total(latency, "add", "remove"),
            "saves": total(latency, "save"),
            "rejected": total("repro_refused_total", "queue_full"),
            "rate_limited": total("repro_refused_total", "rate_limited"),
            "queue_depth": flat["repro_queue_depth{}"],
            "batches_formed": flat.get("repro_batch_size_count{}", 0.0),
            "mean_batch_size": mean("repro_batch_size"),
            "mean_group_size": mean("repro_group_size"),
            "dedup_hits": flat["repro_dedup_hits_total{}"],
            "coalesced_mutations": flat["repro_coalesced_mutations_total{}"],
        }
        for field, outcome in [
            ("cache_hits", "hit"),
            ("cache_misses", "miss"),
            ("cache_invalidations", "invalidated"),
            ("cache_revalidations", "revalidated"),
        ]:
            derived[field] = total("repro_cache_lookups", outcome)
        for figure in ("records", "syncs", "replayed"):
            derived[f"journal_{figure}"] = total("repro_journal", figure)
        for figure in ("hits", "misses", "evictions", "resident", "capacity"):
            derived[f"pool_{figure}"] = total("repro_backend_pool", figure)
        return derived

    @pytest.mark.parametrize("trace_depth", [256, 0])
    def test_stats_equal_the_figures_derived_from_metrics(
        self, tmp_path, rng, trace_depth
    ):
        seed = ImageDatabase(FeatureSchema([PresetSignature(8, "sig")]))
        seed.add_vectors(rng.random((48, 8)))
        seed.build_indexes()
        db, journal, _ = open_serving_root(tmp_path / "root", seed)
        q1, q2, q3 = rng.random((3, 8))
        # Parked worker + a queue of exactly the staged script: the
        # whole mix forms one batch, and the bucket holds one token per
        # throttled submission below (a save is not throttled).
        scheduler = QueryScheduler(
            db, journal=journal, max_queue=9, max_batch=32, max_wait_ms=0.0,
            rate_limit_qps=1e-6, rate_limit_burst=11, trace_depth=trace_depth,
            autostart=False,
        )
        server = QueryServer(db, port=0, scheduler=scheduler).start()
        try:
            staged = [
                scheduler.submit_query(q1, 3),
                scheduler.submit_query(q2, 3),
                scheduler.submit_query(q1, 3),  # deduped against the first
                scheduler.submit_range(q3, 0.6),
                scheduler.submit_add(rng.random((2, 8))),
                scheduler.submit_add(rng.random((1, 8))),  # coalesced
                scheduler.submit_remove([0]),
                scheduler.submit_save(),
            ]
            failed = scheduler.submit_remove([999_999])
            with pytest.raises(QueueFullError):
                scheduler.submit_query(q2, 3)
            scheduler.start()
            for future in staged:
                future.result(timeout=10)
            with pytest.raises(CatalogError):
                failed.result(timeout=10)
            # Repeats after the writes: revalidated or recomputed, then hit.
            scheduler.submit_query(q1, 3).result(timeout=10)
            assert scheduler.submit_query(q1, 3).result(timeout=10).cache_hit
            with pytest.raises(RateLimitError):
                scheduler.submit_query(q2, 3)

            client = ServiceClient(*server.address)
            stats = client.stats()
            derived = self._stats_from_exposition(client.metrics())
        finally:
            server.stop()
        assert {field: stats[field] for field in derived} == derived
        # ...and the figures are the script's, not merely self-consistent.
        # (submitted counts the queue-full refusal: it passed validation
        # and the limiter, and was turned away at the queue itself.)
        assert stats["submitted"] == 12 and stats["completed"] == 6
        assert stats["mutations"] == 3 and stats["saves"] == 1
        assert stats["rejected"] == 1 and stats["rate_limited"] == 1
        assert stats["dedup_hits"] == 1 and stats["coalesced_mutations"] == 1
        assert stats["batches_formed"] >= 1 and stats["cache_hits"] >= 1


class TestNegativeCases:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ServeError, match="no preceding # TYPE"):
            parse_exposition("orphan_metric 1\n")

    def test_malformed_label_block_rejected(self):
        text = '# HELP m x\n# TYPE m counter\nm{route=knn} 1\n'
        with pytest.raises(ServeError, match="malformed label"):
            parse_exposition(text)

    def test_unterminated_label_value_rejected(self):
        text = '# HELP m x\n# TYPE m counter\nm{route="knn} 1\n'
        with pytest.raises(ServeError, match="unterminated|unbalanced"):
            parse_exposition(text)

    def test_non_numeric_value_rejected(self):
        text = "# HELP m x\n# TYPE m counter\nm lots\n"
        with pytest.raises(ServeError, match="non-numeric"):
            parse_exposition(text)

    def test_unknown_type_rejected(self):
        with pytest.raises(ServeError, match="unknown metric type"):
            parse_exposition("# TYPE m sparkline\n")

    def test_missing_help_rejected_by_validator(self):
        text = "# TYPE m counter\nm 1\n"
        parse_exposition(text)  # grammatical — but not semantic:
        with pytest.raises(ServeError, match="no # HELP"):
            validate_exposition(text)

    def test_duplicate_label_set_rejected(self):
        text = (
            "# HELP m x\n# TYPE m counter\n"
            'm{route="knn"} 1\nm{route="knn"} 2\n'
        )
        with pytest.raises(ServeError, match="duplicate sample"):
            validate_exposition(text)

    def test_histogram_missing_inf_bucket_rejected(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\nh_sum 0.05\nh_count 1\n'
        )
        with pytest.raises(ServeError, match=r"\+Inf"):
            validate_exposition(text)

    def test_histogram_noncumulative_buckets_rejected(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\nh_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\nh_sum 1\nh_count 5\n'
        )
        with pytest.raises(ServeError, match="not cumulative"):
            validate_exposition(text)

    def test_histogram_inf_count_mismatch_rejected(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 1\nh_count 3\n'
        )
        with pytest.raises(ServeError, match="!= _count"):
            validate_exposition(text)


class TestProcessStats:
    def test_figures_are_present_and_sane(self):
        stats = read_process_stats()
        assert stats["rss_bytes"] > 0
        assert stats["open_fds"] >= 0
        assert stats["threads"] >= 1
        assert len(stats["gc_collections"]) == 3
        assert all(c >= 0 for c in stats["gc_collections"])

    def test_figures_land_in_scheduler_exposition(self, rng):
        db = ImageDatabase(FeatureSchema([PresetSignature(8, "sig")]))
        db.add_vectors(rng.random((16, 8)))
        db.build_indexes()
        with QueryScheduler(db) as scheduler:
            text = scheduler.render_metrics()
        for figure in ("rss_bytes", "open_fds", "threads"):
            assert f'repro_process{{figure="{figure}"}}' in text
        assert 'repro_process_gc_collections{generation="0"}' in text
