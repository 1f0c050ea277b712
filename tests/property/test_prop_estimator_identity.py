"""Property: the estimator redesign did not move a single float.

The pluggable-estimator API redesign (``repro.estimators``) rebuilt the
refinement layer behind an interface, but the ``paper`` estimator's
contract is *bit identity* with the pre-redesign refinement path:
estimation is passive (it never charges virtual time), so execution is
identical regardless of estimator, and the paper blend's reports must
match float-for-float.  Pinned here across every tier-1 workload grid
variant on both engines:

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

#: (engine, estimator) -> (dataset_key -> Database); shared module-wide
#: so absolute report timestamps stay pairwise comparable (each cache
#: sees the same query sequence).
_DATABASES: dict[tuple[str, str], dict] = {}


def _database(engine: str, estimator: str, variant: grid.Variant):
    cache = _DATABASES.setdefault((engine, estimator), {})
    db = cache.get(variant.dataset_key)
    if db is None:
        config = SystemConfig().with_progress(engine=engine)
        db = cache[variant.dataset_key] = variant.build_database(config)
    return db


def _run(engine: str, estimator: str, variant: grid.Variant):
    """One monitored run; returns (result, log, charge-delta-by-resource)."""
    db = _database(engine, estimator, variant)
    db.restart()
    before = dict(db.clock.cost_charged)
    handle = db.connect().submit(
        variant.sql,
        name=f"id-{variant.name}-{engine}-{estimator}",
        monitor=True,
        estimator=estimator,
    )
    result = handle.result()
    delta = {
        res: total - before.get(res, 0.0)
        for res, total in db.clock.cost_charged.items()
    }
    return result, handle.log, delta


def _normalized(log):
    """The log's reports with the provenance stamp masked out."""
    return [replace(r, estimator=None) for r in log]


def _assert_paper_identity(engine: str, variant: grid.Variant) -> None:
    paper_result, paper_log, paper_u = _run(engine, "paper", variant)
    ens_result, ens_log, ens_u = _run(engine, "ensemble", variant)

    # Estimation is passive: same rows, same order, same U charges.
    assert ens_result.rows == paper_result.rows
    assert ens_u == paper_u
    assert ens_result.elapsed == paper_result.elapsed

    # Provenance: the paper run stamps "paper"; the ensemble's selector
    # opens on the paper candidate (the first tick has no back-test
    # evidence yet, so ties keep the first-registered candidate).
    assert {r.estimator for r in paper_log} == {"paper"}
    provenances = [r.estimator for r in ens_log]
    assert provenances[0] == "ensemble:paper"
    assert all(p.startswith("ensemble:") for p in provenances)

    # The displayed stream itself: every report, float-for-float.
    assert len(ens_log) == len(paper_log)
    for got, want in zip(_normalized(ens_log), _normalized(paper_log)):
        assert got == want

    # Monotone percent-done in both streams.
    for log in (paper_log, ens_log):
        percents = [r.percent_done for r in log]
        assert all(b >= a for a, b in zip(percents, percents[1:]))


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_row_engine_paper_identity(name):
    _assert_paper_identity("row", grid.variants_by_name()[name])


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_batch_engine_paper_identity(name):
    _assert_paper_identity("batch", grid.variants_by_name()[name])


@pytest.mark.parametrize("engine", ["row", "batch"])
def test_default_run_is_the_paper_estimator(engine):
    """``submit()`` with no estimator resolves to the paper baseline."""
    variant = grid.variants_by_name()["xs-uniform-join3-half"]
    config = SystemConfig().with_progress(engine=engine)

    db = grid.build_dataset(*variant.dataset_key, config=config)
    db.restart()
    default_handle = db.connect().submit(variant.sql, name="id-default")
    default_result = default_handle.result()

    db = grid.build_dataset(*variant.dataset_key, config=config)
    db.restart()
    explicit_handle = db.connect().submit(
        variant.sql, name="id-explicit", estimator="paper"
    )
    explicit_result = explicit_handle.result()

    assert default_result.rows == explicit_result.rows
    assert list(default_handle.log) == list(explicit_handle.log)
    assert {r.estimator for r in default_handle.log} == {"paper"}
