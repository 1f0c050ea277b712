"""Unit tests: per-query accuracy scoring (repro.obs.observatory.scoring)."""

from __future__ import annotations

import pytest

from repro.obs.events import (
    InputTrace,
    QueryCancelled,
    QueryFailed,
    QueryFinished,
    QueryShed,
    QueryStarted,
    QueryTimedOut,
    RefinementTick,
    ReportEmitted,
    SegmentMeta,
    SegmentTrace,
    SpeedSampled,
)
from repro.obs.observatory import QERROR_FLOOR_SECONDS, score_events
from repro.obs.observatory.scoring import render_audit


_ACCURATE = object()  # sentinel: "use the perfectly-accurate default"


def report(
    t: float,
    total: float = 100.0,
    est: object = _ACCURATE,
    frac: float | None = None,
    degraded: bool = False,
) -> ReportEmitted:
    """A report at elapsed ``t`` of a ``total``-second run; defaults are
    perfectly accurate (est = actual remaining, frac = t/total).  Pass
    ``est=None`` for a warm-up report with no estimate yet."""
    return ReportEmitted(
        t=t,
        elapsed=t,
        done_pages=t,
        est_cost_pages=total,
        fraction_done=(t / total) if frac is None else frac,
        speed_pages_per_sec=1.0,
        est_remaining_seconds=(total - t) if est is _ACCURATE else est,
        current_segment=0,
        finished=False,
        degraded=degraded,
    )


def finished(total: float = 100.0) -> QueryFinished:
    return QueryFinished(
        t=total, elapsed=total, done_pages=total, actual_cost_pages=total
    )


class TestTerminals:
    def test_perfect_run_scores_cleanly(self):
        events = [report(t) for t in (10.0, 30.0, 50.0, 70.0, 90.0)]
        events.append(finished())
        score = score_events(events)
        assert score.terminal == "finished" and score.scored
        assert score.qerror_geomean == pytest.approx(1.0)
        assert score.qerror_max == pytest.approx(1.0)
        assert score.progress_err_mean == pytest.approx(0.0)
        assert score.progress_err_max == pytest.approx(0.0)
        assert score.monotonicity_violations == 0
        assert score.time_to_within_10 == pytest.approx(0.1)
        assert score.elapsed == 100.0
        assert score.reports_total == score.reports_estimated == 5

    @pytest.mark.parametrize(
        "terminal_event, expected",
        [
            (QueryCancelled(t=50.0, elapsed=50.0, done_pages=10.0,
                            fraction_done=0.5), "cancelled"),
            (QueryTimedOut(t=50.0, elapsed=50.0, done_pages=10.0,
                           fraction_done=0.5), "timed_out"),
            (QueryFailed(t=50.0, elapsed=50.0, done_pages=10.0,
                         fraction_done=0.5, error="boom"), "failed"),
            (QueryShed(t=50.0, elapsed=50.0, done_pages=10.0,
                       fraction_done=0.5), "shed"),
        ],
    )
    def test_non_finished_terminals_are_coverage_only(
        self, terminal_event, expected
    ):
        events = [report(10.0), report(30.0), terminal_event]
        score = score_events(events)
        assert score.terminal == expected
        assert not score.scored
        assert score.qerror_geomean is None
        # ...but the reports still count toward coverage statistics.
        assert score.reports_total == 2
        assert score.reports_estimated == 2

    def test_shed_query_is_shed_not_unterminated(self):
        """The service's eviction is a terminal state of its own."""
        shed = QueryShed(t=40.0, elapsed=40.0, done_pages=40.0,
                         fraction_done=0.4, reason="predicted to miss deadline")
        score = score_events([report(10.0), shed])
        assert score.terminal == "shed"
        assert not score.scored
        assert score.reports_total == 1

    def test_unterminated_trace_is_not_scored(self):
        score = score_events([report(10.0)])
        assert score.terminal == "unterminated"
        assert not score.scored

    def test_empty_trace(self):
        score = score_events([])
        assert score.terminal == "unterminated"
        assert not score.scored
        assert score.reports_total == 0


class TestDegradedReports:
    def test_degraded_reports_are_excluded_but_counted(self):
        clean = [report(t) for t in (10.0, 50.0, 90.0)]
        # A wildly wrong degraded fallback must not move any error metric.
        poisoned = clean + [
            report(60.0, est=1e6, frac=0.0, degraded=True)
        ]
        base = score_events(clean + [finished()])
        score = score_events(poisoned + [finished()])
        assert score.reports_total == 4
        assert score.reports_degraded == 1
        assert score.reports_estimated == 3
        assert score.qerror_geomean == base.qerror_geomean
        assert score.qerror_max == base.qerror_max
        assert score.progress_err_max == base.progress_err_max
        assert score.monotonicity_violations == base.monotonicity_violations

    def test_all_degraded_means_not_scored(self):
        events = [report(t, degraded=True) for t in (10.0, 50.0)]
        events.append(finished())
        score = score_events(events)
        assert not score.scored
        assert score.terminal == "finished"
        assert score.reports_total == score.reports_degraded == 2


class TestMetrics:
    def test_qerror_measures_symmetric_ratio(self):
        # est 2x the actual remaining and actual 2x the estimate both
        # score a q-error of 2.
        over = [report(50.0, est=100.0), finished()]
        under = [report(50.0, est=25.0), finished()]
        assert score_events(over).qerror_max == pytest.approx(2.0)
        assert score_events(under).qerror_max == pytest.approx(2.0)

    def test_qerror_floor_forgives_the_tail(self):
        # With 0.5s actually remaining and a 0.2s estimate, both operands
        # floor to 1s: the tail of a run cannot explode the ratio.
        events = [report(99.5, est=0.2), finished()]
        assert score_events(events).qerror_max == pytest.approx(1.0)
        assert QERROR_FLOOR_SECONDS == 1.0

    def test_warmup_reports_score_progress_but_not_qerror(self):
        events = [
            report(10.0, est=None),  # warm-up: no estimate yet
            report(50.0),
            finished(),
        ]
        score = score_events(events)
        assert score.reports_estimated == 1
        assert score.qerror_geomean == pytest.approx(1.0)
        # The warm-up report still participates in progress error.
        assert score.progress_err_mean == pytest.approx(0.0)

    def test_monotonicity_violations_counted(self):
        events = [
            report(10.0, frac=0.10),
            report(30.0, frac=0.40),
            report(50.0, frac=0.35),  # regression!
            report(70.0, frac=0.70),
            report(90.0, frac=0.69),  # regression!
            finished(),
        ]
        assert score_events(events).monotonicity_violations == 2

    def test_time_to_within_10_requires_a_suffix_streak(self):
        # In band at t=10, out at t=50, back in from t=70: the streak
        # must hold to the end, so lock-on is at 0.7.
        events = [
            report(10.0),
            report(50.0, est=90.0),  # |90 - 50| > 10% band
            report(70.0),
            report(90.0),
            finished(),
        ]
        assert score_events(events).time_to_within_10 == pytest.approx(0.7)

    def test_time_to_within_10_never_locks(self):
        events = [report(50.0, est=500.0), finished()]
        assert score_events(events).time_to_within_10 == 1.0


PAGE = 8192.0


def logged_run() -> list:
    """A two-segment execution logged at one tick (t = 10 s, 6 U/s):
    ``sort`` has read 50 of its 100 estimated one-page rows and written
    10 of an estimated 100; ``output`` has not started.  The run ends
    when the ``paper`` blend said it would (E = 10 + 0.5 * 100 = 60:
    160 U to go of 220), so ``dne`` (E = y/p = 20) says half that and
    ``tgn`` (E = max(E1, y) = 100) 1.5 times it."""

    def meta(seg_id, label, final, inp):
        return SegmentMeta(
            id=seg_id, label=label, final=final, inputs=(inp,),
            est_output_rows=100.0, est_cost_bytes=200 * PAGE,
            est_output_width=PAGE, card_factor=1.0, est_extra_bytes=0.0,
        )

    def trace(seg_id, status, rows, out):
        return SegmentTrace(
            segment_id=seg_id, status=status, p=rows / 100, e1=100.0,
            e2=None, estimate=100.0, dominant_input=None,
            est_cost_bytes=200 * PAGE, done_bytes=(rows + out) * PAGE,
            inputs=(InputTrace(
                index=0, label="t", dominant=True, q=rows / 100,
                rows_read=rows, bytes_read=rows * PAGE, est_rows=100.0,
                source="ne",
            ),),
            output_rows=out, output_bytes=out * PAGE, extra_bytes=0.0,
        )

    total = 10.0 + 160.0 / 6.0
    return [
        QueryStarted(
            t=0.0, label="q", num_segments=2, initial_cost_pages=300.0,
            segments=(
                meta(0, "sort", False, ("base", "t", True, None, 100.0, PAGE)),
                meta(1, "output", True, ("child", "sort", True, 0, 100.0, PAGE)),
            ),
        ),
        SpeedSampled(t=5.0, cumulative_pages=30.0),
        SpeedSampled(t=10.0, cumulative_pages=60.0),
        RefinementTick(
            t=10.0,
            segments=(trace(0, "running", 50, 10), trace(1, "pending", 0, 0)),
            est_total_bytes=220 * PAGE, done_bytes=60 * PAGE, current_segment=0,
        ),
        report(10.0, total=total),
        finished(total),
    ]


class TestAudit:
    """The audit prints what :func:`score_events` computes, one way."""

    def test_one_row_per_report_with_its_qerror(self):
        events = [report(10.0, est=45.0), report(60.0), finished()]
        text, score = render_audit(events)
        assert score == score_events(events)
        rows = text.splitlines()[2:4]
        # est 45 s vs actual 90 s remaining: q-error 2.
        assert rows[0].split() == [
            "10.0", "10.0", "100.0", "1.0", "45.0", "90.0", "2.000",
        ]
        assert rows[1].split()[-1] == "1.000"

    def test_score_card_is_the_query_score(self):
        events = [report(10.0, est=45.0), report(60.0), finished()]
        text, score = render_audit(events)
        assert f"qerror_geomean           {score.qerror_geomean:.6g}" in text
        assert "monotonicity_violations  0" in text
        assert "not scored" not in text

    def test_degraded_report_shows_but_carries_no_qerror(self):
        events = [report(10.0, degraded=True), report(60.0), finished()]
        text, _score = render_audit(events)
        degraded_row = text.splitlines()[2]
        assert degraded_row.endswith("-  degraded")

    def test_trace_without_ground_truth_ends_not_scored(self):
        shed = QueryShed(t=40.0, elapsed=40.0, done_pages=40.0, fraction_done=0.4)
        text, score = render_audit([report(10.0), shed])
        lines = text.splitlines()
        assert lines[2].split()[-2:] == ["-", "-"]  # no actual, no q-error
        assert lines[-1] == "not scored: shed"
        assert not score.scored

    def test_candidates_get_a_row_each(self):
        """Every registered estimator and the selector, replayed."""
        text, _score = render_audit(logged_run())
        rows = {line.split()[0]: line.split() for line in text.splitlines()[-5:]}
        assert list(rows) == ["paper", "dne", "tgn", "history", "ensemble"]
        assert rows["paper"][1:3] == ["1", "1.000"]
        assert rows["dne"][1:3] == ["1", "2.000"]
        assert rows["tgn"][1:3] == ["1", "1.500"]
        assert rows["history"][1:] == rows["paper"][1:]
        assert rows["ensemble"][1:] == rows["paper"][1:]
