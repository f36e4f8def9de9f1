"""Tests for the statistics helpers and the metrics collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.canopus.messages import ClientReply, ClientRequest, RequestType
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import confidence_interval_95, mean, percentile, stddev, summarize


class TestStats:
    def test_mean_of_empty_is_zero(self):
        assert mean([]) == 0.0

    def test_mean_basic(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_stddev_of_constant_is_zero(self):
        assert stddev([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_percentile_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == pytest.approx(5.0)

    def test_percentile_bounds(self):
        values = [4.0, 2.0, 9.0]
        assert percentile(values, 0.0) == 2.0
        assert percentile(values, 1.0) == 9.0

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_percentile_of_empty_is_zero(self):
        assert percentile([], 0.9) == 0.0

    def test_confidence_interval_contains_mean(self):
        low, high = confidence_interval_95([10.0, 12.0, 11.0, 9.0, 13.0])
        centre = mean([10.0, 12.0, 11.0, 9.0, 13.0])
        assert low <= centre <= high

    def test_confidence_interval_single_sample_degenerate(self):
        assert confidence_interval_95([7.0]) == (7.0, 7.0)

    def test_summarize_keys(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert set(summary) == {"count", "mean", "median", "p95", "p99", "min", "max", "stddev"}
        assert summary["count"] == 4

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_percentile_is_monotone_in_fraction(self, values):
        assert percentile(values, 0.1) <= percentile(values, 0.5) <= percentile(values, 0.9)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_percentile_within_min_max(self, values):
        for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert min(values) <= percentile(values, fraction) <= max(values)


class TestCollector:
    def make_request(self, submitted_at, op=RequestType.READ):
        request = ClientRequest(client_id="c", op=op, key="k", submitted_at=submitted_at)
        return request

    def reply_for(self, request):
        return ClientReply(
            request_id=request.request_id,
            client_id=request.client_id,
            op=request.op,
            key=request.key,
            value=None,
            committed_cycle=1,
            server_id="s",
        )

    def test_throughput_counts_only_window_completions(self):
        collector = MetricsCollector()
        for i in range(10):
            request = self.make_request(submitted_at=float(i))
            collector.record_submit(request)
            collector.record_reply(self.reply_for(request), completed_at=float(i) + 0.5)
        summary = collector.summarize(2.0, 7.0)
        assert summary.requests_completed == 5
        assert summary.throughput_rps == pytest.approx(1.0)

    def test_median_completion_time(self):
        collector = MetricsCollector()
        for latency in (0.010, 0.020, 0.030):
            request = self.make_request(submitted_at=1.0)
            collector.record_submit(request)
            collector.record_reply(self.reply_for(request), completed_at=1.0 + latency)
        summary = collector.summarize(0.0, 2.0)
        assert summary.median_completion_s == pytest.approx(0.020)

    def test_read_and_write_medians_tracked_separately(self):
        collector = MetricsCollector()
        fast_read = self.make_request(1.0, RequestType.READ)
        slow_write = self.make_request(1.0, RequestType.WRITE)
        collector.record_submit(fast_read)
        collector.record_submit(slow_write)
        collector.record_reply(self.reply_for(fast_read), completed_at=1.001)
        collector.record_reply(self.reply_for(slow_write), completed_at=1.100)
        summary = collector.summarize(0.0, 2.0)
        assert summary.read_median_s == pytest.approx(0.001)
        assert summary.write_median_s == pytest.approx(0.100)

    def test_unmatched_reply_is_ignored(self):
        collector = MetricsCollector()
        orphan = ClientReply(request_id=999999, client_id="c", op=RequestType.READ, key="k",
                             value=None, committed_cycle=None)
        collector.record_reply(orphan, completed_at=1.0)
        assert collector.completed_records() == []

    def test_refused_request_is_not_a_completion(self):
        collector = MetricsCollector()
        request = self.make_request(1.0, RequestType.READ)
        collector.record_submit(request)
        refusal = self.reply_for(request)
        refusal.error = "not-in-view"
        collector.record_reply(refusal, completed_at=1.08)
        assert collector.completed_records() == []
        assert collector.summarize(0.0, 2.0).requests_completed == 0

    def test_incomplete_requests_not_counted_as_completed(self):
        collector = MetricsCollector()
        request = self.make_request(1.0)
        collector.record_submit(request)
        summary = collector.summarize(0.0, 2.0)
        assert summary.requests_submitted == 1
        assert summary.requests_completed == 0

    def test_as_dict_reports_milliseconds(self):
        collector = MetricsCollector()
        request = self.make_request(1.0)
        collector.record_submit(request)
        collector.record_reply(self.reply_for(request), completed_at=1.25)
        summary = collector.summarize(0.0, 2.0)
        assert summary.as_dict()["median_completion_ms"] == pytest.approx(250.0)

    def test_reset_clears_records(self):
        collector = MetricsCollector()
        request = self.make_request(1.0)
        collector.record_submit(request)
        collector.reset()
        assert collector.records == {}
