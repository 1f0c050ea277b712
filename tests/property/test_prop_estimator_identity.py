"""Property: one logged execution scores every estimator, float for float.

A trace is a complete observation: replaying it
(:func:`repro.obs.replay.replay`) rebuilds the work counters at every
refinement tick and builds each report with the indicator's own report
code.  Pinned here across every tier-1 workload grid variant over the
``tier1_runs`` fixture's ``traced`` lane (batch engine, ``paper``,
tracing on):

* replayed ``paper`` equals the live ProgressLog report for report, field
  for field, in memory and after a JSONL round trip — and equals the row
  engine's live log too;
* tracing is passive: the traced run's outcome is the untraced ``warm``
  run's;
* the replayed ``ensemble`` equals replayed ``paper`` with the provenance
  stamp masked.  The selector opens on the paper candidate and switches
  only on back-test evidence; on this grid that evidence arrives (if at
  all) on the final tick, where every candidate has converged to the
  exact totals — so even a late switch moves no float;
* percent-done stays monotone in every replayed stream.

The ``ensemble`` estimator also runs live (the repo benchmark submits
with it): one variant per engine checks that an untraced live selector
run is passive and displays what its replay over the ``paper`` run's
trace does.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.estimators import estimator_names
from repro.obs.events import RefinementTick
from repro.obs.exporters import read_jsonl, write_jsonl
from repro.obs.replay import replay
from repro.workloads import grid
from tests.grid_runs import VARIANTS, observe


def _masked(reports) -> list:
    return [replace(r, estimator=None) for r in reports]


def _round_trip(events) -> list:
    buf = io.StringIO()
    write_jsonl(events, buf)
    buf.seek(0)
    return read_jsonl(buf)


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_batch_engine_paper_identity(tier1_runs, name):
    cells = tier1_runs(name)
    traced = cells["traced"]
    assert traced.outcome == cells["warm"].outcome  # tracing is passive
    assert {r.estimator for r in traced.log} == {"paper"}

    live = list(traced.log.reports)
    assert replay(traced.events, "paper") == live
    assert replay(_round_trip(traced.events), "paper") == live

    ensemble = replay(traced.events, "ensemble")
    assert ensemble[0].estimator == "ensemble:paper"
    assert all(r.estimator.startswith("ensemble:") for r in ensemble)
    assert _masked(ensemble) == _masked(live)

    for column in estimator_names():
        percents = [r.percent_done for r in replay(traced.events, column)]
        assert all(b >= a for a, b in zip(percents, percents[1:])), column


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_row_engine_paper_identity(tier1_runs, name):
    """The batch engine's trace replays to the row engine's live log."""
    cells = tier1_runs(name)
    assert replay(cells["traced"].events, "paper") == list(cells["row"].log.reports)


def test_extra_passes_replay_float_for_float(tier1_runs):
    """A cascade merge on one page of work_mem: extra-pass bytes replay."""
    db = tier1_runs.fresh("shapes")
    sql = "select custkey, totalprice from orders order by totalprice"
    cell = observe(db, sql, estimator="paper", trace=True)
    ticks = [e for e in cell.events if isinstance(e, RefinementTick)]
    assert any(seg.extra_bytes > 0 for tick in ticks for seg in tick.segments)
    assert replay(cell.events, "paper", db.config) == list(cell.log.reports)


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_live_ensemble_is_passive_and_matches_its_replay(tier1_runs, engine):
    variant = VARIANTS["xs-uniform-join3-half"]
    config = SystemConfig().with_progress(engine=engine)
    paper, ensemble = (
        observe(tier1_runs.fresh(variant.dataset_key, config), variant.sql, **options)
        for options in ({"estimator": "paper", "trace": True},
                        {"estimator": "ensemble"})
    )
    assert ensemble.result.rows == paper.result.rows
    assert (ensemble.now, ensemble.charged, ensemble.storage) == (
        paper.now, paper.charged, paper.storage
    )
    assert list(ensemble.log.reports) == replay(paper.events, "ensemble")


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_default_run_is_the_paper_estimator(tier1_runs, engine):
    """``submit()`` with no estimator resolves to the paper baseline."""
    variant = VARIANTS["xs-uniform-join3-half"]
    config = SystemConfig().with_progress(engine=engine)
    default, explicit = (
        observe(tier1_runs.fresh(variant.dataset_key, config), variant.sql, **options)
        for options in ({}, {"estimator": "paper"})
    )
    assert default.outcome == explicit.outcome
    assert {r.estimator for r in default.log} == {"paper"}
