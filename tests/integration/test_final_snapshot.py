"""Integration: a finished query's closing estimate is float-identical.

An untraced query's closing report reads ``final_snapshot()``, which
sums the finished segments' byte counts; a traced one reads
``snapshot()``, a full refinement pass whose total is a ``math.fsum``.
Both must give the same number, exactly, or a traced and an untraced run
of one query would end on different totals.
"""

import pytest

from repro.workloads import grid, queries
from tests.grid_runs import observe


def _assert_identical(cell) -> None:
    assert cell.state == "finished"
    final, full = cell.closing
    assert full.segments and not final.segments
    assert final.est_total_bytes == full.est_total_bytes


@pytest.mark.parametrize("name", sorted(queries.PAPER_QUERIES))
def test_paper_query(tier1_runs, name):
    _assert_identical(observe(
        tier1_runs.fresh("tpcr-60"), queries.PAPER_QUERIES[name],
        name=name, keep_rows=False, trace=False, estimator="paper",
    ))


def test_tier1_grid(tier1_runs):
    """Every paper-estimator cell of the grid: at the leaderboard's
    work_mem (``spill``) and at the default one, on both engines."""
    for name in grid.TIER1_NAMES:
        for lane in ("spill", "row", "cold", "warm", "prepared"):
            _assert_identical(tier1_runs(name)[lane])
