"""Unit tests: leaderboard runs, persistence, and the accuracy claims.

The committed tier-1 board is the experiment registry's
``leaderboard_tier1`` entry.  Its claims are the accuracy gate, so the
gate cases here are ``experiments.tally`` over an edited copy of the
committed board.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil

import pytest

from repro.bench import experiments
from repro.core.indicator import ProgressIndicator
from repro.estimators import estimator_names
from repro.obs.observatory import (
    LEADERBOARD_SCHEMA,
    Leaderboard,
    LeaderboardCell,
    leaderboard_doc,
    render_aggregates,
    run_leaderboard,
    write_leaderboard,
)
from repro.workloads.grid import Variant, variants_by_name

#: A small, fast slice of the grid exercising scans, blocking operators,
#: and joins — enough for real aggregates in well under a second each.
SMALL_GRID = (
    "xs-uniform-scan-half",
    "xs-uniform-sort-tenth",
    "xs-uniform-join2-unknown",
)
LEADERBOARD = experiments.BY_NAME["leaderboard_tier1"]
BOARD_FILE = "leaderboard_tier1.json"


@pytest.fixture(scope="module")
def small_board() -> Leaderboard:
    by_name = variants_by_name()
    return run_leaderboard([by_name[n] for n in SMALL_GRID], "small")


@pytest.fixture
def board_copy(tmp_path):
    """A results directory holding a copy of the committed tier-1 board."""
    shutil.copy(experiments.RESULTS_DIR / BOARD_FILE, tmp_path)
    return tmp_path


def _edit(results_dir, change) -> None:
    path = results_dir / BOARD_FILE
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _broken(results_dir) -> list[str]:
    """The leaderboard entry's claims that ``results_dir`` breaks."""
    rows = experiments.tally(results_dir, [LEADERBOARD])
    return [claim for _, claim, verdict in rows if verdict == "broken"]


def _holds(claim: str, board: Leaderboard) -> bool:
    return LEADERBOARD.claims[claim](experiments.Run(leaderboard_doc(board)))


class TestRunLeaderboard:
    def test_every_cell_scores(self, small_board):
        assert [c.name for c in small_board.cells] == list(SMALL_GRID)
        for cell in small_board.cells:
            assert cell.terminal == "finished"
            assert cell.scored
            assert cell.qerror_geomean >= 1.0
            assert cell.row_count > 0
        assert small_board.aggregates["coverage"] == 1.0
        assert small_board.aggregates["cells_total"] == len(SMALL_GRID)

    def test_aggregates_carry_the_gated_metrics(self, small_board):
        claimed = ("monotonicity_violations", "cells_scored")
        for metric in [*experiments.LEADERBOARD_CEILINGS, *claimed]:
            assert metric in small_board.aggregates, metric

    def test_runs_are_deterministic(self, small_board):
        by_name = variants_by_name()
        again = run_leaderboard([by_name[n] for n in SMALL_GRID], "small")
        first, second = io.StringIO(), io.StringIO()
        write_leaderboard(small_board, first)
        write_leaderboard(again, second)
        assert first.getvalue() == second.getvalue()

    def test_failing_cell_counts_against_coverage(self):
        by_name = variants_by_name()
        good = by_name["xs-uniform-scan-half"]
        bad = dataclasses.replace(
            good,
            name="xs-uniform-scan-broken",
            sql="select * from no_such_table",
        )
        board = run_leaderboard([good, bad], "small")
        assert board.aggregates["cells_total"] == 2.0
        assert board.aggregates["cells_scored"] == 1.0
        assert board.aggregates["coverage"] == 0.5
        broken = board.cell("xs-uniform-scan-broken")
        assert broken is not None and not broken.scored


class TestPersistence:
    def test_round_trip(self, small_board):
        buf = io.StringIO()
        doc = write_leaderboard(small_board, buf)
        assert doc["schema"] == LEADERBOARD_SCHEMA
        assert json.loads(buf.getvalue()) == doc == leaderboard_doc(small_board)

    def test_file_round_trip(self, small_board, tmp_path):
        path = tmp_path / "board.json"
        buf = io.StringIO()
        write_leaderboard(small_board, path)
        write_leaderboard(small_board, buf)
        assert path.read_text() == buf.getvalue()

    def test_render_aggregates(self, small_board):
        text = render_aggregates(small_board)
        assert "qerror_geomean" in text and "coverage" in text


class TestRegressionGate:
    """The leaderboard entry's claims are the accuracy regression gate."""

    def test_identical_boards_pass(self, board_copy):
        rows = experiments.tally(board_copy, [LEADERBOARD])
        assert {verdict for *_, verdict in rows} == {"held"}
        assert len(rows) == len(LEADERBOARD.claims) == 7

    def test_improvement_passes(self, board_copy):
        def better(doc):
            doc["aggregates"] |= {"qerror_geomean": 1.0, "progress_err_mean": 0.0}

        _edit(board_copy, better)
        assert _broken(board_copy) == []

    def test_worsened_qerror_fails(self, board_copy):
        worse = experiments.LEADERBOARD_CEILINGS["qerror_geomean"] * 1.01

        def above_ceiling(doc):
            # The paper column worsens alike: only the ceiling can catch it.
            doc["aggregates"]["qerror_geomean"] = worse
            doc["estimators"]["paper"]["qerror_geomean"] = worse

        _edit(board_copy, above_ceiling)
        assert _broken(board_copy) == ["qerror_geomean_ceiling"]

    def test_monotonicity_gates_absolutely(self, board_copy):
        def one_violation(doc):
            doc["cells"][0]["monotonicity_violations"] = 1
            doc["aggregates"]["monotonicity_violations"] = 1.0

        _edit(board_copy, one_violation)
        assert _broken(board_copy) == ["no_monotonicity_violation"]

    def test_coverage_drop_fails(self, board_copy):
        def unscored(doc):
            doc["cells"][0]["scored"] = False
            doc["aggregates"]["cells_scored"] = 39.0

        _edit(board_copy, unscored)
        assert _broken(board_copy) == ["all_40_cells_scored"]

    def test_missing_cell_fails(self, board_copy):
        _edit(board_copy, lambda doc: doc["cells"].pop())
        assert _broken(board_copy) == ["all_40_cells_scored"]

    def test_missing_aggregate_fails(self, board_copy):
        _edit(board_copy, lambda doc: doc["aggregates"].pop("qerror_p95"))
        assert _broken(board_copy) == ["qerror_p95_ceiling"]


class TestSabotage:
    """The claims demonstrably fail on an injected accuracy regression."""

    def test_skewed_estimates_fail_the_gate(self, small_board, monkeypatch):
        original = ProgressIndicator._build_report

        def sabotaged(self, t, snapshot, finished):
            report = original(self, t, snapshot, finished)
            if report.est_remaining_seconds is None:
                return report
            # A quietly-introduced 4x overestimate: exactly the class of
            # estimator bug the observatory exists to catch.
            return dataclasses.replace(
                report,
                est_remaining_seconds=report.est_remaining_seconds * 4.0,
            )

        monkeypatch.setattr(ProgressIndicator, "_build_report", sabotaged)
        by_name = variants_by_name()
        skewed = run_leaderboard([by_name[n] for n in SMALL_GRID], "small")

        assert skewed.aggregates["qerror_geomean"] > (
            small_board.aggregates["qerror_geomean"] * 1.2
        )
        assert _holds("qerror_geomean_ceiling", small_board)
        assert not _holds("qerror_geomean_ceiling", skewed)


class TestEstimatorColumns:
    def test_selector_run_records_every_candidate(self, small_board):
        assert small_board.estimator == "ensemble"
        assert set(small_board.estimators) == set(
            estimator_names(include_ensemble=False)
        )
        for aggs in small_board.estimators.values():
            assert aggs["coverage"] == 1.0

    def test_non_ensemble_run_has_no_columns(self):
        by_name = variants_by_name()
        board = run_leaderboard(
            [by_name[SMALL_GRID[0]]], "small", estimator="paper"
        )
        assert board.estimator == "paper"
        assert board.estimators == {}

    def test_render_shows_the_selector_row_and_columns(self, small_board):
        text = render_aggregates(small_board)
        assert "[ensemble]" in text
        assert "qerr_gm" in text
        for name in small_board.estimators:
            assert name in text


class TestSelectorGate:
    def test_selector_never_loses_to_paper(self, small_board):
        assert _holds("selector_no_worse_than_paper", small_board)
        run = experiments.Run(experiments.load()["leaderboard_tier1"])
        assert LEADERBOARD.claims["selector_no_worse_than_paper"](run)

    def test_losing_selector_fails(self, board_copy):
        def better_paper(doc):
            paper = doc["estimators"]["paper"]
            paper["progress_err_mean"] = doc["aggregates"]["progress_err_mean"] / 2

        _edit(board_copy, better_paper)
        assert _broken(board_copy) == ["selector_no_worse_than_paper"]

    def test_run_without_candidates_breaks_the_claim(self, board_copy):
        # A board not run under the ensemble is not the committed board.
        _edit(board_copy, lambda doc: doc.update(estimators={}))
        assert _broken(board_copy) == ["selector_no_worse_than_paper"]


class TestCellHelpers:
    def test_cell_lookup(self, small_board):
        assert small_board.cell(SMALL_GRID[0]).name == SMALL_GRID[0]
        assert small_board.cell("nope") is None

    def test_cell_axes_match_variant(self, small_board):
        by_name = variants_by_name()
        for cell in small_board.cells:
            v: Variant = by_name[cell.name]
            assert isinstance(cell, LeaderboardCell)
            assert (cell.scale, cell.skew, cell.shape, cell.selectivity) == (
                v.scale_key, v.skew, v.shape, v.selectivity_key
            )
