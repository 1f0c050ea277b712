"""Integration: a traced run explains exactly what the indicator showed.

The audit replays ``report_emitted`` events; the ProgressLog stores the
reports the indicator actually emitted.  They must agree row for row —
the trace is a faithful transcript, not a parallel implementation.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.obs import TraceBus, audit_events, chrome_trace, span_coverage
from repro.workloads import queries, tpcr

SCALE = 0.003


@pytest.fixture(scope="module")
def traced_q1():
    db = tpcr.build_database(scale=SCALE, config=SystemConfig(work_mem_pages=24))
    trace = TraceBus()
    monitored = db.connect().submit(
        queries.Q1, trace=trace, keep_rows=False
    ).monitored()
    return monitored, trace


class TestAuditMatchesProgressLog:
    def test_one_audit_row_per_report(self, traced_q1):
        monitored, trace = traced_q1
        summary = audit_events(trace.events)
        assert len(summary.rows) == len(monitored.log)

    def test_rows_reproduce_the_log(self, traced_q1):
        monitored, trace = traced_q1
        summary = audit_events(trace.events)
        for row, report in zip(summary.rows, monitored.log.reports):
            assert row.elapsed == report.elapsed
            assert row.percent_done == pytest.approx(100.0 * report.fraction_done)
            assert row.est_cost_pages == report.est_cost_pages
            assert row.speed_pages_per_sec == report.speed_pages_per_sec
            assert row.est_remaining == report.est_remaining_seconds

    def test_ground_truth_is_the_run_itself(self, traced_q1):
        monitored, trace = traced_q1
        summary = audit_events(trace.events)
        assert summary.total_elapsed == pytest.approx(
            monitored.log.total_elapsed
        )
        assert summary.actual_cost_pages == pytest.approx(
            monitored.log.final().est_cost_pages
        )
        # Final row: the query is done, so zero remaining and zero error.
        assert summary.rows[-1].actual_remaining == 0.0

    def test_unloaded_q1_estimates_are_accurate(self, traced_q1):
        """Figure 6's shape: on an unloaded run the error stays small."""
        _monitored, trace = traced_q1
        summary = audit_events(trace.events)
        assert summary.mean_abs_error is not None
        assert summary.mean_abs_error < 0.05 * summary.total_elapsed


class TestTraceShape:
    def test_chrome_trace_covers_whole_run(self, traced_q1):
        _monitored, trace = traced_q1
        assert span_coverage(chrome_trace(trace.events)) == pytest.approx(1.0)

    def test_timestamps_monotonic_end_to_end(self, traced_q1):
        _monitored, trace = traced_q1
        times = [e.t for e in trace.events]
        assert times == sorted(times)

    def test_trace_bounded_by_pages_not_tuples(self, traced_q1):
        """Per-page events only: the stream must stay far below row count."""
        monitored, trace = traced_q1
        assert len(trace.events) < 20 * monitored.log.final().est_cost_pages
