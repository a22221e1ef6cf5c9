"""Tests of the metrics registry: histograms, merging, Prometheus text."""

import math

import pytest

from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    CounterBundle,
    Histogram,
    MetricError,
    MetricsRegistry,
    flatten_stats,
    prometheus_name,
    render_prometheus,
)


class TestHistogram:
    def test_rejects_non_ascending_buckets(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(MetricError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            Histogram("h", buckets=())

    def test_observation_on_bucket_edge_lands_in_lower_bucket(self):
        # An upper *bound* is inclusive: exactly 1.0 belongs to le=1.
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0, 0]
        hist.observe(1.0000001)
        assert hist.counts == [1, 1, 0, 0]

    def test_percentile_interpolates_inside_bucket(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        # target rank 1.5 of 3 falls midway into the (1, 2] bucket.
        assert hist.percentile(0.50) == pytest.approx(1.5)
        assert hist.percentile(0.0) == 0.0
        # The top quantile is clamped to the true observed max, never the
        # bucket's upper bound.
        assert hist.percentile(1.0) == pytest.approx(3.0)

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(10.0)
        assert hist.counts == [0, 0, 1]
        assert hist.percentile(0.99) == pytest.approx(10.0)
        assert hist.summary()["max"] == pytest.approx(10.0)

    def test_single_observation_interpolates_by_rank_and_clamps(self):
        # Prometheus-style estimation: the quantile's rank is interpolated
        # inside the landing bucket's [lower, upper) range, and the top is
        # clamped to the true observed max.
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)
        assert hist.percentile(0.50) == pytest.approx(0.5)
        assert hist.percentile(0.95) == pytest.approx(0.95)
        assert hist.percentile(1.00) == pytest.approx(1.0)

    def test_non_finite_observations_dropped(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(math.nan)
        hist.observe(math.inf)
        assert hist.count == 0

    def test_empty_percentile_is_zero(self):
        assert Histogram("h", buckets=(1.0,)).percentile(0.95) == 0.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0,)).percentile(1.5)

    def test_merge_requires_identical_bounds(self):
        left = Histogram("h", buckets=(1.0, 2.0))
        right = Histogram("h", buckets=(1.0, 2.0))
        other = Histogram("h", buckets=(1.0, 4.0))
        left.observe(0.5)
        right.observe(3.0)
        left.merge(right.snapshot())
        assert left.count == 2
        assert left.max == pytest.approx(3.0)
        assert left.counts == [1, 0, 1]
        with pytest.raises(MetricError):
            left.merge(other.snapshot())

    def test_summary_shape(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.25)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "mean", "max", "p50", "p95",
                                "p99"}
        assert summary["count"] == 1
        assert summary["mean"] == pytest.approx(0.25)


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")

    def test_bucket_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1.0, 4.0))

    def test_snapshot_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)

        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())

        assert parent.histogram("lat", buckets=(1.0, 2.0)).count == 3
        assert "lat" in parent.histogram_summaries()
        assert parent.histogram_snapshots()["lat"]["counts"] == [2, 1, 0]


class TestCounterBundle:
    def test_attribute_and_item_access_share_state(self):
        bundle = CounterBundle(hits=0, misses=0)
        bundle.hits += 1
        bundle["misses"] += 2
        assert bundle == {"hits": 1, "misses": 2}
        assert bundle.misses == 2
        with pytest.raises(AttributeError):
            bundle.nonexistent

    def test_snapshot_is_a_copy(self):
        bundle = CounterBundle(hits=1)
        snapshot = bundle.snapshot()
        bundle.hits += 1
        assert snapshot == {"hits": 1}


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("scheduler.queue_wait_seconds") == \
            "repro_scheduler_queue_wait_seconds"
        assert prometheus_name("a-b c", prefix="") == "a_b_c"

    def test_flatten_stats(self):
        pairs = dict(flatten_stats({
            "scheduler": {"requests": 3, "note": "text"},
            "store": {"enabled": True},
            "latency": {"mean_seconds": 0.5},
            "timings": {"x": {"count": 1}},
            "empty": None,
        }, skip=("timings",)))
        assert pairs == {"scheduler.requests": 3.0, "store.enabled": 1.0,
                         "latency.mean_seconds": 0.5}

    def test_render_exposition_format(self):
        hist = Histogram("scheduler.queue_wait_seconds", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(
            {"scheduler": {"requests": 3}},
            {hist.name: hist.snapshot()})
        lines = text.splitlines()
        assert "# TYPE repro_scheduler_requests gauge" in lines
        assert "repro_scheduler_requests 3" in lines
        assert ("# TYPE repro_scheduler_queue_wait_seconds histogram"
                in lines)
        assert 'repro_scheduler_queue_wait_seconds_bucket{le="1"} 1' in lines
        assert 'repro_scheduler_queue_wait_seconds_bucket{le="2"} 1' in lines
        # Bucket counts are cumulative and +Inf equals the total count.
        assert ('repro_scheduler_queue_wait_seconds_bucket{le="+Inf"} 2'
                in lines)
        assert "repro_scheduler_queue_wait_seconds_sum 5.5" in lines
        assert "repro_scheduler_queue_wait_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_every_sample_line_parses(self):
        registry = MetricsRegistry()
        registry.histogram("lat").observe(0.01)
        text = render_prometheus(
            {"scheduler": {"requests": 1}, "store": {"enabled": False}},
            registry.histogram_snapshots())
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith("# TYPE ")
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            if not name.endswith('"}'):
                assert "{" not in name
            float(value)  # every sample value is a valid float

    def test_content_type_pins_text_exposition_version(self):
        assert PROMETHEUS_CONTENT_TYPE == \
            "text/plain; version=0.0.4; charset=utf-8"
