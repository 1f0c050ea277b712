"""Unit tests: the TraceBus event stream and its typed event vocabulary."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.obs.bus import TraceBus
from repro.obs.events import (
    EVENT_KINDS,
    BufferAccess,
    CardinalityRefined,
    PageRead,
    QueryFinished,
    QueryStarted,
    SegmentFinished,
    SegmentMeta,
    SegmentStarted,
    TickerFired,
    TraceEvent,
    event_from_dict,
)


def _started(t: float = 0.0) -> QueryStarted:
    return QueryStarted(
        t=t,
        label="q",
        num_segments=1,
        initial_cost_pages=10.0,
        segments=(
            SegmentMeta(
                id=0,
                label="scan",
                final=True,
                inputs=(("base", "t", True, None),),
                est_output_rows=100.0,
                est_cost_bytes=81920.0,
            ),
        ),
    )


class TestBusOrdering:
    def test_events_recorded_in_emission_order(self):
        bus = TraceBus()
        bus.emit(_started(0.0))
        bus.emit(SegmentStarted(t=1.0, segment_id=0))
        bus.emit(SegmentFinished(t=5.0, segment_id=0, done_bytes=8192.0,
                                 output_rows=10))
        bus.emit(QueryFinished(t=5.0, elapsed=5.0, done_pages=1.0,
                               actual_cost_pages=1.0))
        assert [e.kind for e in bus.events] == [
            "query_started", "segment_started", "segment_finished",
            "query_finished",
        ]
        assert len(bus) == 4

    def test_timestamps_must_be_monotonic(self):
        bus = TraceBus()
        bus.emit(SegmentStarted(t=10.0, segment_id=0))
        with pytest.raises(TraceError, match="non-monotonic"):
            bus.emit(SegmentStarted(t=9.0, segment_id=1))

    def test_equal_timestamps_allowed(self):
        bus = TraceBus()
        bus.emit(SegmentStarted(t=3.0, segment_id=0))
        bus.emit(SegmentStarted(t=3.0, segment_id=1))
        assert len(bus) == 2

    def test_tiny_float_jitter_tolerated(self):
        bus = TraceBus()
        bus.emit(TickerFired(t=1.0, name="speed", interval=1.0))
        bus.emit(TickerFired(t=1.0 - 1e-12, name="report", interval=10.0))
        assert len(bus) == 2

    def test_recorded_stream_is_sorted(self):
        """The invariant the exporters and the audit rely on."""
        bus = TraceBus()
        for t in (0.0, 0.5, 0.5, 2.0, 2.0, 7.5):
            bus.emit(SegmentStarted(t=t, segment_id=0))
        times = [e.t for e in bus.events]
        assert times == sorted(times)


class TestBusSubscribers:
    def test_subscriber_sees_every_event(self):
        bus = TraceBus()
        seen: list[TraceEvent] = []
        bus.subscribe(seen.append)
        bus.emit(SegmentStarted(t=0.0, segment_id=0))
        bus.emit(PageRead(t=1.0, file_id=1, page_no=2, sequential=True))
        assert [e.kind for e in seen] == ["segment_started", "page_read"]

    def test_unsubscribe_stops_delivery(self):
        bus = TraceBus()
        seen: list[TraceEvent] = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit(SegmentStarted(t=0.0, segment_id=0))
        unsubscribe()
        unsubscribe()  # idempotent
        bus.emit(SegmentStarted(t=1.0, segment_id=1))
        assert len(seen) == 1

    def test_counts_and_of_kind(self):
        bus = TraceBus()
        bus.emit(SegmentStarted(t=0.0, segment_id=0))
        bus.emit(BufferAccess(t=0.5, file_id=1, page_no=0, hit=False))
        bus.emit(BufferAccess(t=0.6, file_id=1, page_no=0, hit=True))
        assert bus.counts() == {"segment_started": 1, "buffer_access": 2}
        hits = [e for e in bus.of_kind("buffer_access") if e.hit]
        assert len(hits) == 1


class TestEventWireFormat:
    def test_every_kind_is_registered_and_unique(self):
        assert len(EVENT_KINDS) == 28
        assert "event" not in EVENT_KINDS  # base class is not wire-visible

    def test_v1_payload_replays_without_new_fields(self):
        """Schema evolution: fields added with defaults (schema v2's
        ``ReportEmitted.estimator``) must not break old-trace replay."""
        payload = {
            "kind": "report_emitted", "t": 10.0, "elapsed": 10.0,
            "done_pages": 5.0, "est_cost_pages": 50.0, "fraction_done": 0.1,
            "speed_pages_per_sec": 1.0, "est_remaining_seconds": 45.0,
            "current_segment": 0, "finished": False, "degraded": False,
        }
        event = event_from_dict(payload)
        assert event.estimator is None

    def test_round_trip_flat_event(self):
        event = CardinalityRefined(
            t=12.5, segment_id=1, input_index=0, label="orders",
            source_from="ne", source_to="overrun",
            est_rows_from=100.0, est_rows_to=150.0,
        )
        assert event_from_dict(event.to_dict()) == event

    def test_round_trip_nested_event(self):
        event = _started(2.0)
        restored = event_from_dict(event.to_dict())
        assert restored == event
        assert isinstance(restored.segments[0], SegmentMeta)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace event kind"):
            event_from_dict({"kind": "nope", "t": 0.0})
