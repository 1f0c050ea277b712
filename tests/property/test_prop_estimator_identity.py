"""Property: the estimator redesign did not move a single float.

The pluggable-estimator API redesign (``repro.estimators``) rebuilt the
refinement layer behind an interface, but the ``paper`` estimator's
contract is *bit identity* with the pre-redesign refinement path:
estimation is passive (it never charges virtual time), so execution is
identical regardless of estimator, and the paper blend's reports must
match float-for-float.  Pinned here across every tier-1 workload grid
variant on both engines (the ``tier1_runs`` fixture's paper and ensemble
lanes of each engine):

* the config-default run *is* the paper estimator (same provenance,
  same ProgressLog);
* the ensemble's displayed stream equals the paper stream report-for-
  report, differing only in the ``estimator`` provenance stamp.  The
  selector opens on the paper candidate and switches only on back-test
  evidence; on this grid that evidence arrives (if at all) on the final
  tick, where every candidate has converged to the exact totals — so
  even a late switch moves no float;
* rows, result order, and per-resource virtual-clock charges are
  identical across estimators (passivity);
* percent-done stays monotone in every stream.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SystemConfig
from repro.workloads import grid
from tests.grid_runs import VARIANTS, observe


def _assert_paper_identity(paper, ens) -> None:
    # Estimation is passive: same rows, same order, same U charges.
    assert ens.result.rows == paper.result.rows
    assert ens.charged == paper.charged
    assert ens.result.elapsed == paper.result.elapsed

    # Provenance: the paper run stamps "paper"; the ensemble's selector
    # opens on the paper candidate (the first tick has no back-test
    # evidence yet, so ties keep the first-registered candidate).
    assert {r.estimator for r in paper.log} == {"paper"}
    provenances = [r.estimator for r in ens.log]
    assert provenances[0] == "ensemble:paper"
    assert all(p.startswith("ensemble:") for p in provenances)

    # The displayed stream itself: every report, float-for-float, with the
    # provenance stamp masked out.
    ens_reports, paper_reports = (
        [replace(r, estimator=None) for r in c.log] for c in (ens, paper)
    )
    assert ens_reports == paper_reports

    # Monotone percent-done in both streams.
    for log in (paper.log, ens.log):
        percents = [r.percent_done for r in log]
        assert all(b >= a for a, b in zip(percents, percents[1:]))


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_row_engine_paper_identity(tier1_runs, name):
    cells = tier1_runs(name)
    _assert_paper_identity(cells["row"], cells["row-ensemble"])


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_batch_engine_paper_identity(tier1_runs, name):
    cells = tier1_runs(name)
    _assert_paper_identity(cells["warm"], cells["ensemble"])


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
