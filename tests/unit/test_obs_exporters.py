"""Unit tests: JSONL and Chrome trace exporters, with golden files.

The golden files under ``tests/unit/data/`` pin the wire formats: any
change to the JSONL schema or the Chrome ``trace_event`` mapping shows up
as a diff here.  Regenerate deliberately with::

    PYTHONPATH=src:tests python -c \
        "from unit.test_obs_exporters import regenerate; regenerate()"
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.obs.events import (
    AdmissionDecided,
    CardinalityRefined,
    PageRead,
    QueryFinished,
    QueryShed,
    QueryStarted,
    ReportEmitted,
    SegmentFinished,
    SegmentMeta,
    SegmentStarted,
    SpeedEstimated,
    TraceEvent,
)
from repro.obs.exporters import (
    chrome_trace,
    read_jsonl,
    span_coverage,
    write_chrome_trace,
    write_jsonl,
)

DATA = Path(__file__).parent / "data"
GOLDEN_JSONL = DATA / "obs_golden.trace.jsonl"
GOLDEN_CHROME = DATA / "obs_golden.trace.json"
#: The service-layer events (admission and shedding).
GOLDEN_SERVICE_JSONL = DATA / "obs_golden_service.trace.jsonl"


def golden_events() -> list[TraceEvent]:
    """A small, fixed, hand-written trace exercising every export path."""
    return [
        QueryStarted(
            t=0.0, label="golden query", num_segments=2,
            initial_cost_pages=24.0,
            segments=(
                SegmentMeta(id=0, label="sort [SeqScan(t)]", final=False,
                            inputs=(("base", "t", True, None, 64.0, 768.0),),
                            est_output_rows=64.0, est_cost_bytes=98304.0,
                            est_output_width=768.0, card_factor=1.0,
                            est_extra_bytes=0.0),
                SegmentMeta(id=1, label="output", final=True,
                            inputs=(("child", "sort", True, 0, 64.0, 768.0),),
                            est_output_rows=64.0, est_cost_bytes=98304.0,
                            est_output_width=768.0, card_factor=1.0,
                            est_extra_bytes=0.0),
            ),
        ),
        SegmentStarted(t=0.5, segment_id=0),
        PageRead(t=0.5, file_id=3, page_no=0, sequential=True),
        SpeedEstimated(t=1.0, estimator="window", pages_per_sec=2.0),
        CardinalityRefined(
            t=5.0, segment_id=0, input_index=0, label="t",
            source_from="ne", source_to="overrun",
            est_rows_from=64.0, est_rows_to=96.0,
        ),
        SegmentFinished(t=6.0, segment_id=0, done_bytes=98304.0,
                        output_rows=96),
        SegmentStarted(t=6.0, segment_id=1),
        ReportEmitted(
            t=10.0, elapsed=10.0, done_pages=14.0, est_cost_pages=26.0,
            fraction_done=0.5384615384615384, speed_pages_per_sec=2.0,
            est_remaining_seconds=6.0, current_segment=1, finished=False,
        ),
        SegmentFinished(t=16.0, segment_id=1, done_bytes=114688.0,
                        output_rows=96),
        QueryFinished(t=16.0, elapsed=16.0, done_pages=26.0,
                      actual_cost_pages=26.0),
    ]


def golden_service_events() -> list[TraceEvent]:
    """A fixed overload episode: admit, queue on the tenant budget,
    reject, shed."""
    return [
        AdmissionDecided(
            t=0.0, tenant="acme", query="q1", outcome="admitted",
            reason="capacity available", predicted_cost_pages=218.5,
            inflight=0, queued=0,
        ),
        AdmissionDecided(
            t=0.0, tenant="acme", query="q2", outcome="queued",
            reason="tenant 'acme' over cost budget "
            "(218 + 218 > 300 pages)",
            predicted_cost_pages=218.5, inflight=1, queued=0,
        ),
        AdmissionDecided(
            t=0.5, tenant="acme", query="q3", outcome="rejected",
            reason="admission queue full (1 waiting, limit 1; "
            "tenant 'acme' over cost budget (218 + 218 > 300 pages))",
            predicted_cost_pages=218.5, inflight=1, queued=1,
        ),
        QueryShed(
            t=12.0, elapsed=12.0, done_pages=58.0,
            fraction_done=0.2654416857925202,
            reason="predicted to miss deadline by 31.2s "
            "(2 consecutive over-budget estimates)",
        ),
    ]


def regenerate() -> None:  # pragma: no cover - developer tool
    DATA.mkdir(exist_ok=True)
    write_jsonl(golden_events(), GOLDEN_JSONL)
    write_chrome_trace(golden_events(), GOLDEN_CHROME)
    write_jsonl(golden_service_events(), GOLDEN_SERVICE_JSONL)


class TestJsonl:
    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert write_jsonl(golden_events(), out) == len(golden_events())
        assert out.read_text() == GOLDEN_JSONL.read_text()

    def test_round_trip_is_lossless(self):
        buf = io.StringIO()
        write_jsonl(golden_events(), buf)
        buf.seek(0)
        assert read_jsonl(buf) == golden_events()

    def test_read_from_golden_path(self):
        assert read_jsonl(GOLDEN_JSONL) == golden_events()


class TestServiceGolden:
    """The golden file pins the service vocabulary: the wire contract
    for dashboards that consume ``admission_decided`` / ``query_shed``."""

    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "svc.jsonl"
        events = golden_service_events()
        assert write_jsonl(events, out) == len(events)
        assert out.read_text() == GOLDEN_SERVICE_JSONL.read_text()

    def test_round_trip_is_lossless(self):
        buf = io.StringIO()
        write_jsonl(golden_service_events(), buf)
        buf.seek(0)
        assert read_jsonl(buf) == golden_service_events()

    def test_read_from_golden_path(self):
        assert read_jsonl(GOLDEN_SERVICE_JSONL) == golden_service_events()

    def test_shed_reason_defaults_fill(self):
        """A ``query_shed`` payload may omit ``reason``: the field has a
        dataclass default."""
        line = json.dumps(
            {"kind": "query_shed", "t": 1.0, "elapsed": 1.0,
             "done_pages": 2.0, "fraction_done": 0.1}
        )
        events = read_jsonl(io.StringIO(line + "\n"))
        assert events == [
            QueryShed(t=1.0, elapsed=1.0, done_pages=2.0, fraction_done=0.1)
        ]
        assert events[0].reason == "deadline"


class TestChromeTrace:
    def test_matches_golden_file(self, tmp_path):
        out = tmp_path / "t.json"
        write_chrome_trace(golden_events(), out)
        assert json.loads(out.read_text()) == json.loads(
            GOLDEN_CHROME.read_text()
        )

    def test_schema_basics(self):
        doc = chrome_trace(golden_events())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "C", "i"}
        for e in doc["traceEvents"]:
            assert e["pid"] == 1
            if e["ph"] != "M":
                assert e["ts"] >= 0

    def test_virtual_time_in_microseconds(self):
        doc = chrome_trace(golden_events())
        root = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "query"]
        assert len(root) == 1
        assert root[0]["ts"] == 0.0
        assert root[0]["dur"] == pytest.approx(16.0 * 1_000_000.0)

    def test_segment_spans_on_own_threads(self):
        doc = chrome_trace(golden_events())
        seg = {e["tid"]: e for e in doc["traceEvents"]
               if e["ph"] == "X" and e["cat"] == "segment"}
        assert set(seg) == {1, 2}
        assert seg[1]["args"]["self_bytes"] == 98304.0
        assert seg[2]["args"]["subtree_bytes"] == 114688.0 + 98304.0

    def test_full_span_coverage(self):
        assert span_coverage(chrome_trace(golden_events())) == pytest.approx(1.0)

    def test_coverage_zero_without_root(self):
        events = [e for e in golden_events()
                  if not isinstance(e, QueryFinished)]
        assert span_coverage(chrome_trace(events)) == 0.0
