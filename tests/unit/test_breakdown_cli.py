"""Unit tests for the per-segment breakdown and the CLI."""

import pytest

from repro.__main__ import build_parser, main
from repro.core.breakdown import (
    attribute_error,
    render_breakdown,
    segment_progress,
    time_breakdown,
)
from repro.workloads import queries, tpcr


@pytest.fixture(scope="module")
def finished_run():
    db = tpcr.build_database(scale=0.002)
    return db, db.connect().submit(queries.Q2, keep_rows=False).monitored()


class TestSegmentBreakdown:
    def test_one_row_per_segment(self, finished_run):
        db, monitored = finished_run
        rows = segment_progress(
            monitored.indicator.snapshot(), db.config.page_size,
            monitored.indicator.tracker,
        )
        assert len(rows) == len(monitored.indicator.segments)

    def test_finished_segments_fully_done(self, finished_run):
        db, monitored = finished_run
        rows = segment_progress(
            monitored.indicator.snapshot(), db.config.page_size,
            monitored.indicator.tracker,
        )
        assert all(r.status == "finished" for r in rows)
        assert all(r.fraction_done == pytest.approx(1.0) for r in rows)
        assert all(r.p == 1.0 for r in rows)

    def test_drift_identifies_lineitem_error(self, finished_run):
        # The misestimated segment is the one fed by the lineitem scan
        # (default selectivity 1/3 vs true 1 -> ~3x drift).
        db, monitored = finished_run
        rows = segment_progress(
            monitored.indicator.snapshot(), db.config.page_size,
            monitored.indicator.tracker,
        )
        worst = attribute_error(rows)
        assert worst is not None
        assert worst.estimate_drift == pytest.approx(3.0, rel=0.1)

    def test_time_breakdown_sums_to_at_least_elapsed(self, finished_run):
        # Segments can overlap (pipelining), so their spans sum to >= the
        # longest one and the last segment ends at query completion.
        db, monitored = finished_run
        rows = segment_progress(
            monitored.indicator.snapshot(), db.config.page_size,
            monitored.indicator.tracker,
        )
        spans = time_breakdown(rows)
        assert len(spans) == len(rows)
        assert all(seconds >= 0 for _, seconds in spans)

    def test_render_contains_labels(self, finished_run):
        db, monitored = finished_run
        text = monitored.indicator.describe_segments()
        assert "hash build" in text
        assert "output" in text

    def test_breakdown_without_tracker(self, finished_run):
        db, monitored = finished_run
        rows = segment_progress(
            monitored.indicator.snapshot(), db.config.page_size, tracker=None
        )
        assert all(r.started_at is None for r in rows)


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_runs(self, capsys):
        code = main(["demo", "--query", "Q1", "--scale", "0.001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Plan for Q1" in out
        assert "Segment breakdown" in out

    def test_demo_unknown_query(self, capsys):
        assert main(["demo", "--query", "Q9", "--scale", "0.001"]) == 2

    def test_sql_command(self, capsys):
        code = main(
            ["sql", "select count(*) from customer", "--scale", "0.001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 row(s)" in out

    def test_figures_command(self, capsys):
        code = main(["figures", "--query", "Q1", "--scale", "0.001"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated cost" in out
        assert "completed %" in out

    def test_figures_with_interference(self, capsys):
        code = main(
            ["figures", "--query", "Q1", "--scale", "0.001", "--interference", "cpu"]
        )
        assert code == 0
