"""Integration: the indicator's overhead and non-interference guarantees.

The paper claims its indicator "imposes a negligible (less than 1%)
penalty on the running time of queries" (Section 1).  In this engine the
claim splits in two:

* **Simulated time**: the tracker charges *no* virtual time at all, so
  monitored and unmonitored runs take identical simulated seconds and do
  identical I/O.
* **Real (host) time**: the executing query only counts work — at most
  a couple of integer increments of its own local variables per tuple,
  and none for the query result, whose rows the output batches count —
  and the indicator pulls those counts when it samples or reports
  (``tracker.sync``, which folds them into one running total, so every
  U read is O(1)).  A query waiting for its scheduler slice is parked:
  its readers skip the fold.  A closing program folds its last counts
  and unhooks ``sync``, and cancelled tickers drop their callbacks, so a
  finished query's indicator is released at once.  What a monitored
  lookup still pays is its tickers, the sample at its start and one
  closing report; the repo benchmark (``benchmarks/e2e/``:
  ``monitor_ratio``, ``core.tracking_ratio``, ``obs.trace_ratio``)
  measures the wall-clock cost that leaves, and
  :class:`TestRealOverheadCounted` its exact, host-independent
  counterpart: the generated program's line events, monitored over
  plain.
"""

import sys

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


def _fused_line_events(db, sql: str, monitor: bool) -> int:
    """Python line events in the query's generated program (its ``_sync``
    included) for one cold run: the work monitoring adds, counted exactly."""
    count = 0

    def lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == "<fused-plan>" else None

    db.restart()
    session = db.connect()
    sys.settrace(calls)
    try:
        session.submit(sql, monitor=monitor, keep_rows=False).result()
    finally:
        sys.settrace(None)
    return count


class TestRealOverheadCounted:
    """The exact counterpart of the benchmark's wall-clock ratio: the
    monitored program executes at most 3% more lines than the plain one.
    The query result is not counted per row (the driver's batches count
    it) and a query waiting for its slice is not folded."""

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5"])
    def test_monitored_program_runs_at_most_three_percent_more_lines(
        self, pair, name
    ):
        plain_db, monitored_db = pair
        sql = queries.PAPER_QUERIES[name]
        plain = _fused_line_events(plain_db, sql, monitor=False)
        monitored = _fused_line_events(monitored_db, sql, monitor=True)
        assert plain > 0
        assert monitored / plain <= 1.03
