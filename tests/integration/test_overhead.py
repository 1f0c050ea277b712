"""Integration: the indicator's overhead and non-interference guarantees.

The paper claims its indicator "imposes a negligible (less than 1%)
penalty on the running time of queries" (Section 1).  In this engine the
claim splits in two:

* **Simulated time**: the tracker charges *no* virtual time at all, so
  monitored and unmonitored runs take identical simulated seconds and do
  identical I/O.
* **Real (host) time**: the executing query only counts — at most a
  couple of integer increments of its own local variables per tuple —
  and the indicator pulls those counts when it samples or reports
  (``tracker.sync``); the repo benchmark (``benchmarks/e2e/``:
  ``monitor_ratio``, ``core.tracking_ratio``, ``obs.trace_ratio``)
  measures the wall-clock cost that leaves.
"""

import pytest

from repro.workloads import queries, tpcr


@pytest.fixture(scope="module")
def pair():
    """Two identical databases: one monitored run, one plain run."""
    return (
        tpcr.build_database(scale=0.002, subset_rows=50),
        tpcr.build_database(scale=0.002, subset_rows=50),
    )


class TestZeroSimulatedOverhead:
    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5"])
    def test_same_virtual_elapsed(self, pair, name):
        plain_db, monitored_db = pair
        sql = queries.PAPER_QUERIES[name]
        plain_db.restart()
        monitored_db.restart()
        plain = plain_db.connect().execute(sql, keep_rows=False)
        monitored = monitored_db.connect().submit(sql, keep_rows=False).monitored()
        assert monitored.result.elapsed == pytest.approx(plain.elapsed, rel=1e-9)

    def test_same_io_counters(self, pair):
        plain_db, monitored_db = pair
        plain_db.restart()
        monitored_db.restart()
        io_before_plain = dict(plain_db.disk.io_counters())
        io_before_mon = dict(monitored_db.disk.io_counters())
        plain_db.connect().execute(queries.Q2, keep_rows=False)
        monitored_db.connect().submit(queries.Q2, keep_rows=False).monitored()
        delta_plain = {
            k: v - io_before_plain[k] for k, v in plain_db.disk.io_counters().items()
        }
        delta_mon = {
            k: v - io_before_mon[k]
            for k, v in monitored_db.disk.io_counters().items()
        }
        assert delta_plain == delta_mon


class TestPacing:
    def test_update_every_ten_seconds(self, pair):
        # "our prototyped progress indicators could be updated every ten
        # seconds" (Section 5): one report per 10 virtual seconds.
        _, monitored_db = pair
        monitored_db.restart()
        monitored = monitored_db.connect().submit(
            queries.Q2, keep_rows=False
        ).monitored()
        elapsed = monitored.result.elapsed
        periodic = [r for r in monitored.log.reports if not r.finished]
        assert len(periodic) == int(elapsed / 10.0)
