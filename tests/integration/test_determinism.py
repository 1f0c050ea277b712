"""Integration: the entire simulation is deterministic.

Reproducibility claim: identical configuration and seed produce
bit-identical progress histories — virtual time has no hidden
nondeterminism (no wall clock, no unordered iteration affecting results).
"""

import pytest

from repro.config import SystemConfig
from repro.workloads import queries, tpcr


def run_once(sql):
    db = tpcr.build_database(
        scale=0.002, subset_rows=40, config=SystemConfig(work_mem_pages=8)
    )
    monitored = db.connect().submit(sql, keep_rows=True).monitored()
    return monitored


class TestDeterminism:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5"])
    def test_identical_progress_histories(self, name):
        sql = queries.PAPER_QUERIES[name]
        a = run_once(sql)
        b = run_once(sql)
        assert a.result.elapsed == b.result.elapsed
        assert a.log.to_csv() == b.log.to_csv()

    def test_identical_results(self):
        a = run_once(queries.Q2)
        b = run_once(queries.Q2)
        assert a.result.rows == b.result.rows

    def test_identical_plans(self):
        db1 = tpcr.build_database(scale=0.002, subset_rows=40)
        db2 = tpcr.build_database(scale=0.002, subset_rows=40)
        assert db1.explain(queries.Q2) == db2.explain(queries.Q2)
