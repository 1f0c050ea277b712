"""The fused engine's pull-model work accounting (``tracker.sync``).

A fused program counts rows in its own variables; ``tracker.sync`` — a
closure over them that the program installs — folds the counts into the
tracker when somebody reads it.  These tests pin the edges of that
arrangement: queries that stop in the middle of a page (cancel, timeout,
shed, LIMIT) leave the same counters and ProgressLog as the row engine
without any final flush, a failing ``sync`` is absorbed like any other
monitoring failure, and no generated row loop writes to a tracker object.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math

import pytest

from repro.analysis.generated import check_program, is_row_loop
from repro.analysis.invariants import collect_nodes
from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.executor.base import PULSE, ExecContext
from repro.executor.fused import FusedQuery
from repro.executor.runtime import execute
from repro.planner.optimizer import PlannedQuery
from repro.planner.physical import NestLoopNode, SortNode
from repro.workloads import queries, tpcr

#: A sort whose one-page work_mem spills (and pulses) every ~85 rows, so
#: scheduler slices end while the scan below it is in the middle of a page.
SPILLING_SORT = "select * from orders order by totalprice"


def _db(engine: str = "batch", **config):
    system = SystemConfig(**config).with_progress(engine=engine)
    return tpcr.build_database(scale=0.002, subset_rows=120, config=system)


def _counters(tracker) -> list[tuple]:
    return [
        (
            list(seg.input_rows), list(seg.input_bytes), seg.output_rows,
            seg.output_bytes, seg.extra_bytes, seg.started, seg.finished,
            seg.started_at, seg.finished_at,
        )
        for seg in tracker.segments
    ]


def _whole_page_totals(db, table: str) -> set[int]:
    heap = db.catalog.get_table(table).heap
    return set(itertools.accumulate(p.bytes_used for p in heap.iter_pages()))


class TestStoppedMidPage:
    """Cells outlive the generator: no flush protocol on any exit path."""

    def _stop(self, engine: str, how: str):
        db = _db(engine, work_mem_pages=1)
        session = db.connect()
        handle = session.submit(SPILLING_SORT, name="q", keep_rows=False)
        for _ in range(7):
            session.step()
        task = handle.task
        assert not task.done
        if how == "cancel":
            handle.cancel()
        elif how == "shed":
            session.scheduler.shed(task, reason="test eviction")
        else:
            task.deadline = db.clock.now  # the next watchdog sweep fires
            session.step()
        assert task.done and task.state != "finished"
        return db, task

    @pytest.mark.parametrize("how", ["cancel", "timeout", "shed"])
    def test_same_log_and_counters_as_the_row_engine(self, how):
        db, fused = self._stop("batch", how)
        _, volcano = self._stop("row", how)
        assert fused.state == volcano.state
        assert fused.log == volcano.log
        tracker = fused.indicator.tracker
        assert _counters(tracker) == _counters(volcano.indicator.tracker)
        # The scan really was part-way through a page when it stopped.
        scanned = tracker.segments[0].input_bytes[0]
        assert 0 < scanned < max(_whole_page_totals(db, "orders"))
        assert scanned not in _whole_page_totals(db, "orders")
        assert fused.log.final().done_pages == (
            tracker.total_done_bytes / db.config.page_size
        )

    def test_limit_stops_the_scan_after_exactly_its_rows(self):
        logs, counters = [], []
        for engine in ("batch", "row"):
            db = _db(engine)
            handle = db.connect().submit("select * from orders limit 10")
            assert handle.result().row_count == 10
            logs.append(handle.log)
            counters.append(_counters(handle.task.indicator.tracker))
        assert logs[0] == logs[1]
        assert counters[0] == counters[1]
        assert counters[0][0][0] == [10]  # ten rows into the first page


class TestResultCountedInRows:
    """The query result is not work: its segment's output keeps a row count
    and no bytes.  A projection that hands rows straight to the driver is
    counted per flushed batch; with a stage in between, per row, where the
    row engine counts it."""

    @pytest.mark.parametrize("sql", [
        "select orderkey, orderstatus from orders",
        "select orderkey, orderstatus from orders limit 7",
        "select distinct orderstatus from orders",
        "select custkey, count(*) from orders group by custkey "
        "having count(*) > 2",
    ])
    def test_engines_agree_and_the_result_keeps_no_bytes(self, sql):
        finals = []
        for engine in ("batch", "row"):
            handle = _db(engine).connect().submit(sql, keep_rows=False)
            result = handle.result()
            tracker = handle.task.indicator.tracker
            final = next(seg for seg in tracker.segments if seg.final)
            assert final.output_bytes == 0
            assert 0 < final.output_rows and result.row_count <= final.output_rows
            finals.append((final.output_rows, _counters(tracker)))
        assert finals[0] == finals[1]


class TestParkedWhileWaiting:
    """A query waiting for its slice is parked: the scheduler's slice-end
    read of its U folded the program's counts, and the program cannot count
    until its next slice, so every reader takes the running total as it
    stands — no fold — until that slice re-hooks ``sync``."""

    def _session(self, on_report=None):
        db = _db(work_mem_pages=1)
        session = db.connect()
        tasks = [
            session.submit(sql, name=name, keep_rows=False, on_report=on_report).task
            for name, sql in (("a", SPILLING_SORT), ("b", queries.Q2))
        ]
        return db, session, tasks

    def test_a_waiting_tracker_is_unhooked_at_its_slice_end_value(self):
        db, session, tasks = self._session()
        waited = 0
        for _ in range(12):
            ran = session.step().task
            for task in tasks:
                tracker = task.indicator.tracker
                if task is ran or task.done or not task.slices:
                    continue
                waited += 1
                assert tracker.sync is None
                counters = _counters(tracker)
                total = tracker.total_done_bytes
                assert tracker.done_pages(db.config.page_size) == (
                    total / db.config.page_size
                )
                task.indicator.report()  # a reader does not re-hook it
                assert tracker.sync is None
                # Parked right after a fold: folding again adds nothing.
                tracker._parked()
                assert (_counters(tracker), tracker.total_done_bytes) == (
                    counters, total
                )
        assert waited >= 10

    def test_the_next_slice_re_hooks_sync(self):
        seen = []

        def on_report(report):
            for task in tasks:
                if task.slices or task.state == "running":
                    seen.append((task.state, task.indicator.tracker.sync is None))

        _, session, tasks = self._session(on_report)
        session.run()
        assert all(task.state == "finished" for task in tasks)
        assert ("running", False) in seen and ("suspended", True) in seen
        assert set(seen) <= {("running", False), ("suspended", True),
                             ("finished", True)}

    @pytest.mark.parametrize("how", ["cancel", "timeout", "shed"])
    def test_a_task_stopped_while_parked_ends_folded_and_unhooked(self, how):
        db, session, tasks = self._session()
        for _ in range(5):
            session.step()
        task = tasks[0]
        tracker = task.indicator.tracker
        assert task.state == "suspended" and tracker.sync is None
        counters = _counters(tracker)
        if how == "cancel":
            session.handles[0].cancel()
        elif how == "shed":
            session.scheduler.shed(task, reason="test eviction")
        else:
            task.deadline = db.clock.now  # the next watchdog sweep fires
            session.step()
        assert task.done and task.state != "finished"
        assert tracker.sync is None and tracker._parked is None
        assert [c[:5] for c in _counters(tracker)] == [c[:5] for c in counters]
        assert tracker.total_done_bytes == math.fsum(
            seg.done_bytes for seg in tracker.segments
        )


class TestSyncFailureIsAbsorbed:
    def test_report_degrades_and_the_query_is_unharmed(self):
        db = _db()
        planned = db.prepare(queries.Q2)
        expected = db.connect().submit(planned, monitor=False).result().rows

        indicator = ProgressIndicator(planned, db.clock, db.config)
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
        )
        stream = execute(planned, ctx)
        rows = []
        for item in itertools.islice(stream, 8):
            if item is not PULSE:
                rows.extend(item.rows())
        tracker = indicator.tracker
        real_sync = tracker.sync
        assert real_sync is not None

        def broken_once():
            tracker.sync = real_sync
            raise RuntimeError("sync sabotaged")

        good = indicator.report()
        assert not good.degraded
        before = indicator.degraded_count
        tracker.sync = broken_once
        report = indicator.report()
        assert report.degraded
        assert indicator.degraded_count == before + 1
        assert not indicator.report().degraded  # the next pull works again

        tracker.sync = broken_once  # and inside a ticker, mid-``advance``
        for item in stream:
            if item is not PULSE:
                rows.extend(item.rows())
        assert indicator.degraded_count == before + 2
        log = indicator.finalize()
        assert rows == expected
        assert log.final().finished and not log.final().degraded


class TestHoistedWidthsStayInScope:
    """A width part hoisted to where its source row is bound must be bound
    on every path that reaches its use."""

    @pytest.mark.parametrize("work_mem_pages", [64, 1])
    def test_join_over_a_sort_with_two_production_sites(self, work_mem_pages):
        # A sort emits its consumer twice (in-memory stream, run merge);
        # with one page of work_mem the second copy is the one that runs.
        results = []
        for engine in ("batch", "row"):
            db = _db(engine, work_mem_pages=work_mem_pages)
            planned = db.prepare(queries.Q5)
            join = next(
                n for n in collect_nodes(planned.root)
                if isinstance(n, NestLoopNode)
            )
            outer = join.outer
            join.outer = SortNode(
                outer, [(outer.columns[0].coordinate, True)],
                list(outer.columns), outer.est_rows,
            )
            planned = PlannedQuery(
                root=planned.root, query=planned.query,
                config=planned.config, search_cost=planned.search_cost,
            )
            handle = db.connect().submit(planned, monitor=True)
            results.append((handle.result().rows, handle.log))
        assert results[0] == results[1]
        assert results[0][0]


@functools.lru_cache(maxsize=None)
def _plan_sources(monitored: bool) -> dict[str, str]:
    db = _db()
    statements = dict(queries.PAPER_QUERIES)
    statements["sort_agg"] = (
        "select custkey, count(*), sum(totalprice) from orders "
        "group by custkey order by custkey"
    )
    sources = {}
    for name in ("Q1", "Q2", "Q5", "sort_agg"):
        planned = db.prepare(statements[name])
        indicator = ProgressIndicator(planned, db.clock, db.config) if monitored else None
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config,
            tracker=indicator.tracker if monitored else None,
        )
        query = FusedQuery(planned.root, ctx)
        sources[name] = query.source
        query.close()
        if indicator is not None:
            indicator.abort()
    return sources


class TestGeneratedSourceStructure:
    """``repro.analysis.generated`` is the check (``verify`` runs it on every
    plan); here it meets the programs these tests already compile."""

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5", "sort_agg"])
    def test_row_loops_only_count_in_bare_names(self, name):
        source = _plan_sources(monitored=True)[name]
        assert check_program(source, monitored=True) == []
        assert "def _sync():" in source and ".sync = _sync" in source
        nonlocal_line = next(
            line for line in source.splitlines() if "nonlocal " in line
        )
        cells = set(nonlocal_line.split("nonlocal ")[1].split(", "))
        counted = {
            node.id
            for loop in filter(is_row_loop, ast.walk(ast.parse(source)))
            for node in ast.walk(loop)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assert counted & cells, "per-row tracker statements are `name += ...`"

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q5", "sort_agg"])
    def test_unmonitored_source_has_no_tracker_code(self, name):
        source = _plan_sources(monitored=False)[name]
        assert check_program(source, monitored=False) == []
        assert "__length_hint__" not in source
