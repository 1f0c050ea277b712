"""Unit tests for the indicator facade, reports and history."""

import pytest

from repro.core.history import ProgressLog
from repro.core.indicator import ProgressIndicator
from repro.core.report import ProgressReport
from repro.errors import ProgressError
from repro.workloads import queries


def run_monitored(db, sql, **kwargs):
    db.restart()  # cold buffer pool, as in the paper's protocol
    return db.connect().submit(sql, keep_rows=False, **kwargs).monitored()


class TestIndicatorLifecycle:
    def test_reports_every_update_interval(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        interval = tiny_tpcr.config.progress.update_interval
        times = [r.elapsed for r in monitored.log.reports[:-1]]
        for i, t in enumerate(times):
            assert t == pytest.approx((i + 1) * interval)

    def test_final_report_flagged(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        assert monitored.log.final().finished
        assert all(not r.finished for r in monitored.log.reports[:-1])

    def test_finalize_twice_rejected(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        with pytest.raises(ProgressError):
            monitored.indicator.finalize()

    def test_on_report_callback_invoked(self, tiny_tpcr):
        seen = []
        run_monitored(tiny_tpcr, queries.Q1, on_report=seen.append)
        assert seen
        assert all(isinstance(r, ProgressReport) for r in seen)

    def test_initial_cost_matches_optimizer(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        assert monitored.log.initial_cost_pages == pytest.approx(
            monitored.log.reports[0].est_cost_pages, rel=0.05
        )


class TestReportContents:
    def test_percent_monotone_for_scan(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        percents = [r.percent_done for r in monitored.log]
        assert all(b >= a - 1e-9 for a, b in zip(percents, percents[1:]))

    def test_final_percent_is_100(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        assert monitored.log.final().percent_done == pytest.approx(100.0)

    def test_warmup_suppresses_speed(self, tiny_tpcr):
        indicator_report = None
        planned = tiny_tpcr.prepare(queries.Q1)
        indicator = ProgressIndicator(planned, tiny_tpcr.clock, tiny_tpcr.config)
        indicator_report = indicator.report()  # elapsed 0 < warmup
        assert indicator_report.speed_pages_per_sec is None
        assert indicator_report.est_remaining_seconds is None
        indicator.finalize()

    def test_speed_positive_while_running(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        mid = monitored.log.reports[len(monitored.log.reports) // 2]
        assert mid.speed_pages_per_sec is not None
        assert mid.speed_pages_per_sec > 0

    def test_format_line_renders(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q1)
        line = monitored.log.final().format_line()
        assert "done" in line and "cost=" in line

    def test_current_segment_progresses(self, tiny_tpcr):
        monitored = run_monitored(tiny_tpcr, queries.Q2)
        segments = [
            r.current_segment
            for r in monitored.log
            if r.current_segment is not None
        ]
        assert segments == sorted(segments)


class TestProgressLog:
    def _log(self, db):
        return run_monitored(db, queries.Q1).log

    def test_len_and_iter(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        assert len(log) == len(list(log))

    def test_at_lookup(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        report = log.at(log.total_elapsed / 2)
        assert report is not None
        assert report.elapsed <= log.total_elapsed / 2

    def test_at_before_first_report_is_none(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        assert log.at(-1.0) is None

    def test_actual_remaining(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        assert log.actual_remaining(0.0) == pytest.approx(log.total_elapsed)
        assert log.actual_remaining(log.total_elapsed + 5) == 0.0

    def test_series_shapes(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        n = len(log)
        assert len(log.estimated_cost_series()) == n
        assert len(log.speed_series()) == n
        assert len(log.remaining_series()) == n
        assert len(log.percent_series()) == n

    def test_csv_roundtrip_lines(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        csv = log.to_csv()
        assert len(csv.strip().splitlines()) == len(log) + 1

    def test_mean_absolute_remaining_error_defined(self, tiny_tpcr):
        log = self._log(tiny_tpcr)
        error = log.mean_absolute_remaining_error()
        assert error is not None
        assert error >= 0.0
