"""Unit tests: the metrics registry, collector, and span accounting."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    AdmissionDecided,
    BufferAccess,
    IndicatorDegraded,
    PageRead,
    PageWritten,
    QueryFinished,
    QueryStarted,
    ReportEmitted,
    SegmentFinished,
    SegmentMeta,
    SegmentStarted,
    SpeedEstimated,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    compute_spans,
    render_spans,
)


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets(self):
        h = Histogram("h", (10.0, 20.0))
        for v in (5, 10, 15, 25):
            h.observe(v)
        # bisect_left: a value equal to a bound counts in the lower bucket
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.mean() == pytest.approx(13.75)

    def test_histogram_bounds_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))

    def test_quantile_interpolates_within_buckets(self):
        h = Histogram("h", (10.0, 20.0))
        for v in (2, 4, 6, 8, 12, 14, 16, 18, 22, 24):
            h.observe(v)
        # 4 obs in [0,10), 4 in [10,20), 2 overflow.  p50 sits one
        # observation into the second bucket: 10 + (5-4)/4 * 10 = 12.5.
        assert h.quantile(0.5) == pytest.approx(12.5)
        # p25 interpolates the first bucket from 0: 0 + 2.5/4 * 10.
        assert h.quantile(0.25) == pytest.approx(6.25)

    def test_quantile_overflow_bucket_clamps_to_last_bound(self):
        h = Histogram("h", (10.0,))
        for v in (50, 60, 70):
            h.observe(v)
        # The open-ended bucket has no upper edge: clamp to the bound.
        assert h.quantile(0.99) == pytest.approx(10.0)

    def test_quantile_edge_cases(self):
        h = Histogram("h", (10.0,))
        assert h.quantile(0.5) is None  # empty histogram
        h.observe(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_render_includes_quantile_summary_lines(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0):
            h.observe(v)
        out = reg.render()
        assert "lat_count 3" in out
        for label in ("lat_p50", "lat_p95", "lat_p99"):
            assert label in out, label

    def test_registry_is_idempotent_per_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1.0,)) is reg.histogram("h", (1.0,))

    def test_render_flat_text(self):
        reg = MetricsRegistry()
        reg.counter("io.reads").inc(3)
        reg.gauge("speed").set(12.5)
        out = reg.render()
        assert "io.reads 3" in out
        assert "speed 12.5" in out


class TestCollector:
    def test_storage_events_counted(self):
        events = [
            PageRead(t=0.0, file_id=1, page_no=0, sequential=True),
            PageRead(t=0.1, file_id=1, page_no=9, sequential=False),
            PageWritten(t=0.2, file_id=2, page_no=0),
            BufferAccess(t=0.3, file_id=1, page_no=0, hit=True),
            BufferAccess(t=0.4, file_id=1, page_no=1, hit=False),
        ]
        reg = MetricsCollector().collect(events)
        assert reg.counter("io.reads.seq").value == 1
        assert reg.counter("io.reads.random").value == 1
        assert reg.counter("io.writes").value == 1
        assert reg.counter("buffer.hits").value == 1
        assert reg.counter("buffer.misses").value == 1

    def test_progress_and_speed_aggregation(self):
        events = [
            SpeedEstimated(t=1.0, estimator="window", pages_per_sec=None),
            SpeedEstimated(t=2.0, estimator="window", pages_per_sec=4.0),
            ReportEmitted(
                t=10.0, elapsed=10.0, done_pages=5.0, est_cost_pages=50.0,
                fraction_done=0.1, speed_pages_per_sec=4.0,
                est_remaining_seconds=11.25, current_segment=0, finished=False,
            ),
            QueryFinished(t=20.0, elapsed=20.0, done_pages=50.0,
                          actual_cost_pages=50.0),
        ]
        reg = MetricsCollector().collect(events)
        assert reg.counter("reports.emitted").value == 1
        assert reg.gauge("speed.pages_per_sec").value == 4.0
        assert reg.gauge("progress.fraction_done").value == 0.1
        assert reg.gauge("query.elapsed_seconds").value == 20.0
        # The None speed sample is not observed in the distribution.
        assert reg.histogram("speed.distribution", ()).count == 1

    def test_degradations_and_admissions_counted_by_cause(self):
        def decided(outcome: str) -> AdmissionDecided:
            return AdmissionDecided(
                t=0.0, tenant="acme", query="q", outcome=outcome, reason="r",
                predicted_cost_pages=1.0, inflight=0, queued=0,
            )

        events = [
            decided("admitted"), decided("queued"), decided("admitted"),
            IndicatorDegraded(t=1.0, phase="report", fallback="last_good",
                              error="boom"),
        ]
        reg = MetricsCollector().collect(events)
        assert reg.counter("admission.admitted").value == 2
        assert reg.counter("admission.queued").value == 1
        assert reg.counter("degraded.report.last_good").value == 1


def _query_started_two_segments() -> QueryStarted:
    """Segment 1 consumes segment 0's output (child link)."""
    return QueryStarted(
        t=0.0, label="q", num_segments=2, initial_cost_pages=20.0,
        segments=(
            SegmentMeta(id=0, label="sort", final=False,
                        inputs=(("base", "t", True, None, 10.0, 4096.0),),
                        est_output_rows=10.0, est_cost_bytes=81920.0,
                        est_output_width=4096.0, card_factor=1.0,
                        est_extra_bytes=0.0),
            SegmentMeta(id=1, label="output", final=True,
                        inputs=(("child", "sort", True, 0, 10.0, 4096.0),),
                        est_output_rows=10.0, est_cost_bytes=81920.0,
                        est_output_width=4096.0, card_factor=1.0,
                        est_extra_bytes=0.0),
        ),
    )


class TestSpans:
    def test_self_time_excludes_child_overlap(self):
        events = [
            _query_started_two_segments(),
            SegmentStarted(t=1.0, segment_id=0),
            SegmentStarted(t=2.0, segment_id=1),
            SegmentFinished(t=6.0, segment_id=0, done_bytes=8192.0,
                            output_rows=5),
            SegmentFinished(t=10.0, segment_id=1, done_bytes=16384.0,
                            output_rows=5),
        ]
        spans = compute_spans(events)
        parent = spans[1]
        assert parent.duration == pytest.approx(8.0)      # 2 .. 10
        assert parent.child_seconds == pytest.approx(4.0)  # overlap 2 .. 6
        assert parent.self_seconds == pytest.approx(4.0)
        assert parent.subtree_bytes == pytest.approx(16384.0 + 8192.0)
        child = spans[0]
        assert child.self_seconds == pytest.approx(child.duration)

    def test_unstarted_segment_renders_as_dash(self):
        spans = compute_spans([_query_started_two_segments()])
        table = render_spans(spans, page_size=8192)
        assert "sort" in table and "output" in table
        assert " - " in table.replace("-" * 10, "")

    def test_render_spans_page_units(self):
        events = [
            _query_started_two_segments(),
            SegmentStarted(t=0.0, segment_id=0),
            SegmentFinished(t=1.0, segment_id=0, done_bytes=81920.0,
                            output_rows=1),
        ]
        table = render_spans(compute_spans(events), page_size=8192)
        assert "10.0" in table  # 81920 bytes / 8192 = 10 U
