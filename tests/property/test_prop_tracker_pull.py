"""Property: what a reader of the work tracker sees is engine-independent.

The row engine *pushes* every row into the tracker; a fused program only
counts in its own variables and installs ``tracker.sync``, which every
reader calls first (the *pull* model).  The contract is about observation
points, not update points: at any place a query can be observed — a ticker
firing inside ``clock.advance``, or the driver holding the generator
suspended at a ``PULSE`` or right after a ``Batch`` — both engines must
show the same counters, hence the same report.

Each case drives ``execute()`` directly and asks ``indicator.report()``
after every comparable item, so ``sync`` runs with the generator suspended
at both yield kinds, including in the middle of a page (a tiny
``batch_rows`` makes full batches flush every few rows).  A stream
position is named ``(pulses so far, rows so far)``; a batch flushed *by* a
pulse is skipped, because the fused program has by then run on to the end
of the page while the row engine's driver saw those rows one by one.

The same drive checks U's exactness: every byte counter holds an integer
at every report and the per-segment done-bytes sum to the running total
exactly.  Over every monitored cell of the ``tier1_runs`` grid, the total
a run ends on is its segments' sum and the program let go of the tracker,
and a replay's loaded tracker is the live one at every refinement tick.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.executor.base import PULSE, ExecContext
from repro.executor.batch import Batch
from repro.executor.runtime import execute
from repro.executor.work import WorkTracker
from repro.obs.events import QueryStarted, RefinementTick
from repro.obs.replay import load_tick
from repro.workloads import grid, queries
from tests.grid_runs import VARIANTS

#: Small enough that most batches fill (and flush) in the middle of a page.
BATCH_ROWS = 6

#: One cell per plan shape, plus extra selectivities of the join shapes.
GRID_CASES = (
    "xs-uniform-scan-half",
    "xs-uniform-sort-tenth",
    "xs-uniform-agg-full",
    "xs-uniform-join2-half",
    "xs-uniform-join3-tenth",
    "xs-uniform-join3-unknown",
    "xs-uniform-selfjoin-half",
    "xs-uniform-multi4-tenth",
)


def _assert_exact(tracker) -> None:
    for seg in tracker.segments:
        counters = [*seg.input_bytes, seg.output_bytes, seg.extra_bytes]
        assert all(float(value).is_integer() for value in counters), counters
    assert tracker.total_done_bytes == sum(s.done_bytes for s in tracker.segments)
    assert float(tracker.total_done_bytes).is_integer()


def _drive(db, sql: str, at=None):
    """Run ``sql`` monitored; returns ({position: report}, rows, final log).

    ``at=None`` reports at every comparable position; otherwise only at the
    given ones (the other engine's), so both sides refine equally often.
    """
    planned = db.prepare(sql)
    db.restart()
    indicator = ProgressIndicator(planned, db.clock, db.config)
    ctx = ExecContext(
        db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
    )
    pulses = 0
    rows: list[tuple] = []
    reports = {}
    for item in execute(planned, ctx):
        comparable = True
        if item is PULSE:
            pulses += 1
        elif type(item) is Batch:
            rows.extend(item.rows())
            comparable = len(item) == BATCH_ROWS
        else:
            rows.append(item)
        position = (pulses, len(rows))
        if comparable and (at is None or position in at):
            reports[position] = indicator.report()
            _assert_exact(indicator.tracker)
    return reports, rows, indicator.finalize()


def _assert_same_at_every_observation_point(tier1_runs, dataset, sql) -> None:
    # Each engine runs the same query sequence on its own copy of the
    # dataset, so their clock histories stay pairwise equal.
    batch, row = (
        tier1_runs.database(f"pull-{engine}", dataset, SystemConfig().with_progress(
            engine=engine, batch_rows=BATCH_ROWS))
        for engine in ("batch", "row")
    )
    batch_reports, batch_rows, batch_log = _drive(batch, sql)
    row_reports, row_rows, row_log = _drive(row, sql, at=batch_reports.keys())
    assert batch_rows == row_rows
    assert batch_reports.keys() == row_reports.keys()
    for position, report in batch_reports.items():
        assert report == row_reports[position], position
    assert batch_log == row_log
    # Both yield kinds were observed, and rows were still in flight.
    mid_stream = [p for p in batch_reports if 0 < p[1] < len(batch_rows)]
    assert mid_stream or not batch_rows
    assert any(pulses for pulses, _ in batch_reports)


@pytest.mark.parametrize("name", GRID_CASES)
def test_grid_variant_reports_equal_after_every_item(tier1_runs, name):
    case = VARIANTS[name]
    _assert_same_at_every_observation_point(tier1_runs, case.dataset_key, case.sql)


@pytest.mark.parametrize("name", ["Q2", "Q5"])
def test_paper_query_reports_equal_after_every_item(tier1_runs, name):
    sql = queries.PAPER_QUERIES[name]
    _assert_same_at_every_observation_point(tier1_runs, "tpcr", sql)


def _walk(tracker) -> float:
    """Every segment's done bytes, added up one counter at a time."""
    total = 0.0
    for seg in tracker.segments:
        total += seg.done_bytes
    return total


def _counters(seg) -> tuple:
    return (list(seg.input_rows), list(seg.input_bytes), seg.output_rows,
            seg.output_bytes, seg.extra_bytes, seg.started, seg.finished)


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_running_total(tier1_runs, name):
    cells = tier1_runs(name)
    monitored = {lane: c for lane, c in cells.items() if c.tracker is not None}
    assert "traced" in monitored and "spill" in monitored
    for lane, cell in monitored.items():
        assert cell.tracker.sync is None, lane
        assert cell.tracker.total_done_bytes == _walk(cell.tracker), lane

    live = monitored["traced"].tracker
    events = monitored["traced"].events
    started = next(e for e in events if isinstance(e, QueryStarted))
    loaded = WorkTracker([len(m.inputs) for m in started.segments],
                         final_segment=live.segments[-1].segment_id)
    ticks = [e for e in events if isinstance(e, RefinementTick)]
    assert ticks
    for tick in ticks:
        load_tick(loaded, tick)
        assert loaded.total_done_bytes == tick.done_bytes == _walk(loaded), tick.t
        for seg in tick.segments:
            assert loaded.segments[seg.segment_id].done_bytes == seg.done_bytes
    # The closing tick saw the counters the run ended on.
    assert loaded.total_done_bytes == live.total_done_bytes
    assert [_counters(s) for s in loaded.segments] == [
        _counters(s) for s in live.segments
    ]
