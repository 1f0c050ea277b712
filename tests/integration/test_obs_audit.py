"""Integration: a traced run explains exactly what the indicator showed.

The audit scores ``report_emitted`` events; the ProgressLog stores the
reports the indicator actually emitted.  They must agree row for row —
the trace is a faithful transcript, not a parallel implementation.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.obs import TraceBus, chrome_trace, span_coverage
from repro.estimators import HistoryStore
from repro.estimators.history import signature_of
from repro.obs.events import QueryFinished, ReportEmitted
from repro.obs.observatory.scoring import render_audit, score_events
from repro.obs.replay import replay
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
        text, score = render_audit(trace.events)
        assert score.reports_total == len(monitored.log)
        table = text.split("\n\n")[0].splitlines()[2:]
        assert len(table) == len(monitored.log)

    def test_rows_reproduce_the_log(self, traced_q1):
        monitored, trace = traced_q1
        reports = [e for e in trace.events if isinstance(e, ReportEmitted)]
        assert len(reports) == len(monitored.log.reports)
        for event, report in zip(reports, monitored.log.reports):
            assert event.elapsed == report.elapsed
            assert event.fraction_done == report.fraction_done
            assert event.est_cost_pages == report.est_cost_pages
            assert event.speed_pages_per_sec == report.speed_pages_per_sec
            assert event.est_remaining_seconds == report.est_remaining_seconds

    def test_ground_truth_is_the_run_itself(self, traced_q1):
        monitored, trace = traced_q1
        score = score_events(trace.events)
        assert score.terminal == "finished" and score.scored
        assert score.elapsed == pytest.approx(monitored.log.total_elapsed)
        assert score.actual_cost_pages == pytest.approx(
            monitored.log.final().est_cost_pages
        )
        # Final row: the query is done, so zero remaining, q-error 1.
        text, _score = render_audit(trace.events)
        last_row = text.split("\n\n")[0].splitlines()[-1].split()
        assert last_row[-2:] == ["0.0", "1.000"]

    def test_replayed_paper_row_is_the_live_score(self, traced_q1):
        """The audit's ``paper`` row replays the run that was traced."""
        monitored, trace = traced_q1
        text, score = render_audit(trace.events)
        paper = next(
            line.split() for line in text.splitlines() if line.startswith("paper ")
        )
        assert paper[1:3] == [
            str(len(monitored.log)), f"{score.qerror_geomean:.3f}",
        ]

    def test_replayed_history_learns_once_from_a_finished_run(self, traced_q1):
        monitored, trace = traced_q1
        store = HistoryStore()
        unfinished = [e for e in trace.events if not isinstance(e, QueryFinished)]
        replay(unfinished, "history", history=store)
        assert len(store) == 0
        replay(trace.events, "history", history=store)
        signatures = {signature_of(s) for s in monitored.indicator.segments}
        assert {store.observations(sig) for sig in signatures} == {1}

    def test_unloaded_q1_estimates_are_accurate(self, traced_q1):
        """Figure 6's shape: on an unloaded run the error stays small."""
        _monitored, trace = traced_q1
        score = score_events(trace.events)
        assert score.qerror_geomean is not None
        assert score.qerror_geomean < 1.05
        assert score.monotonicity_violations == 0


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
