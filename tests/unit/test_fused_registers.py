"""The fused engine's clock registers, held to the row engine at every store.

A fused program charges the virtual clock through fast locals (``now``,
``nev``, per resource its ``cost_charged`` total and load factor) and
hands them back to the clock wherever other code can see or move it: a
yield, the slow path, a storage call, a tracker call, each step of a
hand-written iterator, and every exit.  Each test below drives one of
those points on both engines and asks for the same clock, ``cost_charged``,
ProgressLog and storage counters, compared with ``==``.
"""

from __future__ import annotations

import ast
import sys

import pytest

from repro.analysis.generated import is_row_loop
from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.executor.base import ExecContext
from repro.executor.fused import FusedQuery
from repro.fault.plan import FaultPlan
from repro.planner.physical import MergeJoinNode
from repro.sim.load import LoadProfile
from repro.workloads import queries, tpcr


def _db(engine: str, config: SystemConfig | None = None, **build):
    system = (config or SystemConfig()).with_progress(engine=engine)
    build.setdefault("subset_rows", 120)
    return tpcr.build_database(scale=0.002, config=system, **build)


def _state(db) -> tuple:
    """Everything a store must leave exact: the clock and the storage."""
    pool = db.buffer_pool
    return (
        db.clock.now,
        dict(db.clock.cost_charged),
        db.disk.io_counters(),
        (pool.hits, pool.misses, pool.pinned_count),
    )


def _run(db, sql: str):
    handle = db.connect().submit(sql, name="q", monitor=True, keep_rows=True)
    result = handle.result()
    return result.rows, handle.log, _state(db), handle


def _agree(sql: str, config: SystemConfig | None = None, prepare=None, **build):
    """Run ``sql`` on both engines; every observable must be equal."""
    out = []
    for engine in ("row", "batch"):
        db = _db(engine, config, **build)
        if prepare is not None:
            prepare(db)
        out.append((db, _run(db, sql)))
    (_, row), (batch_db, batch) = out
    assert batch[0] == row[0]  # result rows, in order
    assert batch[1] == row[1]  # ProgressLog
    assert batch[2] == row[2]  # clock, cost_charged, I/O, pool
    return batch_db, batch[:3], batch[3]


def _program_text(db, sql: str) -> str:
    """The text a monitored query of ``sql`` runs (its shape's program)."""
    from repro.analysis.invariants import verify_plan
    from repro.executor.work import WorkTracker

    planned = db.prepare(sql)
    specs, _ = verify_plan(planned.root)
    tracker = WorkTracker([len(s.inputs) for s in specs], specs[-1].id, db.clock)
    query = FusedQuery(
        planned.root,
        ExecContext(db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker),
    )
    query.close()
    return query.source


class TestEventsInsideARowLoop:
    """A ticker instant and a load boundary fall between two rows of one
    page: the slow path stores, fires, and the reload takes the new factor."""

    def test_q5_under_a_cpu_window_that_starts_mid_page(self):
        config = SystemConfig().with_progress(update_interval=0.05)
        solo = _db("row", config, subset_rows=200)
        solo_elapsed = solo.connect().submit(queries.Q5).result().elapsed
        start = solo_elapsed * 0.37  # well inside the nested-loop phase
        where: list[int] = []

        def at_boundary(_t: float) -> None:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_filename != "<fused-plan>":
                frame = frame.f_back
            if frame is not None:
                where.append(frame.f_lineno)

        def prepare(db):
            db.set_load(LoadProfile.cpu_hog(start, start + solo_elapsed, 2.5))
            db.clock.add_ticker(1e9, at_boundary, first=start)

        db, (_rows, log, (now, _, _, _)), _ = _agree(
            queries.Q5, config, prepare, subset_rows=200
        )
        assert now > solo_elapsed and len(log) > 20  # slowed, reported often
        (line,) = where
        tree = ast.parse(_program_text(db, queries.Q5))
        loops = [
            loop for loop in ast.walk(tree)
            if is_row_loop(loop) and loop.lineno < line <= loop.end_lineno
        ]
        assert loops, "the boundary did not fall inside a row loop"


class TestStoragePaths:
    def test_index_scan_under_transient_read_faults(self):
        counters = []

        def prepare(db):
            db.create_index("orders", "totalprice")  # rows scattered over pages
            db.analyze()
            db.restart()
            counters.append(db.install_faults(
                FaultPlan(seed=9, transient_read_rate=0.5)
            ))

        sql = "select orderkey, totalprice from orders where totalprice < 3000"
        db, _, _ = _agree(sql, prepare=prepare)
        assert "IndexScan" in db.explain(sql)
        row, batch = (c.counters() for c in counters)
        assert batch == row and batch["io_retries"] > 0

    def test_forced_merge_join(self):
        config = SystemConfig().with_planner(
            enable_hashjoin=False, enable_nestloop=False
        )
        sql = (
            "select c.custkey, o.orderkey from customer c, orders o "
            "where c.custkey = o.custkey and o.totalprice > 1000"
        )
        db, (rows, _, _), _ = _agree(sql, config)
        assert any(isinstance(n, MergeJoinNode) for n in _nodes(db.prepare(sql).root))
        assert rows

    def test_cascade_merge_external_sort_at_work_mem_1(self):
        sql = "select * from orders order by totalprice"
        db, _, handle = _agree(sql, SystemConfig(work_mem_pages=1))
        text = _program_text(db, sql)
        assert "collapse()" in text and "heapq.merge(" in text
        # More runs than the merge fanout: merged groups were rewritten.
        tracker = handle.task.indicator.tracker
        assert any(seg.extra_bytes > 0 for seg in tracker.segments)


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


class TestExits:
    def test_a_division_by_zero_mid_page_raises_with_the_same_clock(self):
        sql = "select orderkey, totalprice / (orderkey - 37) from orders"
        states = []
        for engine in ("row", "batch"):
            db = _db(engine)
            handle = db.connect().submit(sql, name="q", monitor=True)
            with pytest.raises(ExecutionError, match="division by zero"):
                handle.result()
            states.append((handle.log, _state(db)))
        assert states[0] == states[1]
        assert states[0][1][0] > 0

    @pytest.mark.parametrize("how", ["cancel", "timeout"])
    def test_stopped_at_a_pulse(self, how):
        states = []
        for engine in ("row", "batch"):
            db = _db(engine, SystemConfig(work_mem_pages=1))
            session = db.connect()
            handle = session.submit(
                "select * from orders order by totalprice", name="q", keep_rows=False
            )
            for _ in range(7):
                session.step()
            if how == "cancel":
                handle.cancel()
            else:
                handle.task.deadline = db.clock.now  # the next sweep fires
                session.step()
            assert handle.task.done and handle.state != "finished"
            states.append((handle.state, handle.log, _state(db)))
        assert states[0] == states[1]
