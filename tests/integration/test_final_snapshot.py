"""Integration: a finished query's closing estimate is float-identical.

An untraced query's closing report reads ``final_snapshot()``, which
sums the finished segments' byte counts; a traced one reads
``snapshot()``, a full refinement pass whose total is a ``math.fsum``.
Both must give the same number, exactly, or a traced and an untraced run
of one query would end on different totals.
"""

import pytest

from repro.obs.observatory.leaderboard import grid_config
from repro.workloads import queries, tpcr
from repro.workloads.grid import resolve_grid


def _assert_identical(handle) -> None:
    handle.result()
    assert handle.state == "finished"
    estimator = handle.task.indicator.estimator
    final, full = estimator.final_snapshot(), estimator.snapshot()
    assert full.segments and not final.segments
    assert final.est_total_bytes == full.est_total_bytes


@pytest.mark.parametrize("name", sorted(queries.PAPER_QUERIES))
def test_paper_query(name):
    db = tpcr.build_database(scale=0.002, subset_rows=60)
    handle = db.connect().submit(
        queries.PAPER_QUERIES[name], name=name, keep_rows=False,
        trace=False, estimator="paper",
    )
    _assert_identical(handle)


def test_tier1_grid():
    datasets = {}
    for variant in resolve_grid("tier1"):
        db = datasets.get(variant.dataset_key)
        if db is None:
            db = datasets[variant.dataset_key] = variant.build_database(grid_config())
        db.restart()
        handle = db.connect().submit(
            variant.sql, name=variant.name, keep_rows=False,
            trace=False, estimator="paper",
        )
        _assert_identical(handle)
