"""Unit tests: scheduler watchdog (timeouts/deadlines) and containment."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import (
    ProgressError,
    QueryShedError,
    QueryTimeoutError,
    SpillSpaceError,
    TransientIOError,
)
from repro.executor.base import PULSE
from repro.fault import FaultPlan, RetryPolicy
from repro.sched.task import CANCELLED, DONE_STATES, FAILED, FINISHED, SHED, TIMED_OUT
from repro.workloads import queries, tpcr


def _db(**config_kwargs):
    config = SystemConfig(**config_kwargs) if config_kwargs else None
    return tpcr.build_database(scale=0.002, subset_rows=60, config=config)


class TestTimeout:
    def test_timeout_moves_task_to_timed_out(self):
        db = _db()
        session = db.connect()
        handle = session.submit(queries.Q2, name="slow", trace=True, timeout=2.0)
        with pytest.raises(QueryTimeoutError):
            handle.result()
        assert handle.state == TIMED_OUT
        assert handle.done
        trace = handle.trace()
        assert trace.counts().get("query_timed_out") == 1
        assert "query_finished" not in trace.counts()

    def test_timeout_is_measured_from_first_slice(self):
        db = _db()
        session = db.connect()
        # q1 runs first and burns virtual time; q2's timeout clock must
        # only start at q2's own first slice.
        session.submit(queries.Q1, name="q1", keep_rows=False).result()
        started = db.clock.now
        assert started > 10.0
        handle = session.submit(queries.Q2, name="q2", timeout=5.0)
        with pytest.raises(QueryTimeoutError):
            handle.result()
        assert handle.task.deadline == pytest.approx(
            handle.task.started_at + 5.0
        )
        assert handle.task.started_at >= started

    def test_absolute_deadline(self):
        db = _db()
        session = db.connect()
        deadline = db.clock.now + 3.0
        handle = session.submit(queries.Q2, name="q", deadline=deadline)
        with pytest.raises(QueryTimeoutError):
            handle.result()
        assert handle.state == TIMED_OUT
        assert db.clock.now >= deadline

    def test_generous_timeout_finishes_normally(self):
        db = _db()
        handle = db.connect().submit(queries.Q1, name="q", timeout=1e9)
        assert handle.result().row_count > 0
        assert handle.state == FINISHED

    def test_timed_out_query_does_not_block_siblings(self):
        db = _db()
        session = db.connect()
        doomed = session.submit(queries.Q2, name="doomed", timeout=2.0)
        survivor = session.submit(queries.Q1, name="survivor")
        result = survivor.result()
        assert result.row_count > 0
        assert doomed.state == TIMED_OUT
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0

    def test_deadline_sweep_times_out_suspended_tasks(self):
        db = _db()
        session = db.connect()
        runner = session.submit(queries.Q1, name="runner")
        waiter = session.submit(queries.Q1, name="waiter", timeout=1.0)
        # One slice each arms waiter's deadline; then suspend it so only
        # runner advances the clock past the deadline.
        session.scheduler.step()
        session.scheduler.step()
        session.scheduler.suspend("waiter")
        runner.result()
        session.scheduler.resume("waiter")
        session.scheduler.step()
        assert waiter.state == TIMED_OUT

    def test_invalid_timeout_rejected(self):
        db = _db()
        with pytest.raises(ProgressError, match="timeout must be positive"):
            db.connect().submit(queries.Q1, timeout=0.0)


class TestContainment:
    def test_fatal_fault_fails_one_query_not_the_workload(self):
        db = _db(work_mem_pages=8)
        # Spill budget 0: the first query that spills dies; Q1 (a pure
        # scan, never spills) must be untouched.
        db.install_faults(FaultPlan(seed=1, spill_capacity_pages=0))
        try:
            session = db.connect()
            spiller = session.submit(queries.Q2, name="spiller", trace=True)
            scanner = session.submit(queries.Q1, name="scanner", trace=True)
            assert scanner.result().row_count > 0
            with pytest.raises(SpillSpaceError):
                spiller.result()
        finally:
            db.clear_faults()
        assert spiller.state == FAILED
        assert scanner.state == FINISHED
        assert spiller.trace().counts().get("query_failed") == 1
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0

    def test_exhausted_retries_surface_the_transient_error(self):
        db = _db()
        injector = db.install_faults(FaultPlan(
            seed=1, transient_read_rate=1.0, max_repeat=10,
            retry=RetryPolicy(max_attempts=2),
        ))
        try:
            handle = db.connect().submit(queries.Q1, name="q", trace=True)
            with pytest.raises(TransientIOError):
                handle.result()
        finally:
            db.clear_faults()
        assert handle.state == FAILED
        assert injector.counters()["io_gave_up"] >= 1
        assert handle.trace().counts().get("query_failed") == 1

    def test_every_terminal_state_is_exactly_one(self):
        db = _db(work_mem_pages=8)
        db.install_faults(FaultPlan(seed=2, spill_capacity_pages=10))
        try:
            session = db.connect()
            handles = [
                session.submit(sql, name=name, trace=True, keep_rows=False)
                for name, sql in queries.PAPER_QUERIES.items()
            ]
            session.run()
        finally:
            db.clear_faults()
        terminal_kinds = (
            "query_finished", "query_failed",
            "query_cancelled", "query_timed_out",
        )
        for handle in handles:
            assert handle.task.state in DONE_STATES
            counts = handle.trace().counts()
            assert sum(counts.get(k, 0) for k in terminal_kinds) == 1

    def test_keyboard_interrupt_propagates_after_unwind(self):
        db = _db()
        session = db.connect()
        handle = session.submit(queries.Q1, name="q")

        def interrupted():
            raise KeyboardInterrupt
            yield  # pragma: no cover - makes this a generator

        handle.task.gen.close()
        handle.task.gen = interrupted()
        with pytest.raises(KeyboardInterrupt):
            session.scheduler.step()
        assert handle.state == FAILED
        assert db.buffer_pool.pinned_count == 0


class TestEvictionUnwind:
    """Regression: watchdog/eviction must unwind mid-spill state exactly
    once, on every termination path — the historical bug was the terminal
    transition closing the coroutine *before* flipping the state, so a
    raising operator ``finally`` left a zombie SUSPENDED task with a live
    indicator (and a second cancel could unwind it again)."""

    def _spill_mid_flight(self, session, handle):
        """Step until the query has live mid-spill state (temp files)."""
        db = session.db
        while db.disk.temp_file_count() == 0:
            assert session.step() is not None, "query never spilled"
            assert not handle.done
        return db.disk.temp_file_count()

    def test_past_deadline_mid_spill_releases_exactly_once(self):
        db = _db(work_mem_pages=8)
        session = db.connect()
        handle = session.submit(queries.Q2, name="q", trace=True)
        temps = self._spill_mid_flight(session, handle)
        assert temps > 0

        task = handle.task
        aborts = []
        indicator = task.indicator
        original_abort = indicator.abort
        indicator.abort = lambda **kw: aborts.append(kw) or original_abort(**kw)

        # Arm the deadline at "now": the very next watchdog sweep fires
        # while the query is suspended mid-spill.
        task.deadline = db.clock.now
        session.step()
        assert task.state == TIMED_OUT
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0
        assert len(aborts) == 1
        assert indicator.finalized

        # Idempotence: cancel and shed after the timeout are no-ops —
        # no second unwind, no second indicator abort, state unchanged.
        session.scheduler.cancel(task)
        session.scheduler.shed(task)
        assert task.state == TIMED_OUT
        assert len(aborts) == 1
        assert handle.trace().counts().get("query_timed_out") == 1

    def test_shed_mid_spill_releases_pins_and_temps(self):
        db = _db(work_mem_pages=8)
        session = db.connect()
        handle = session.submit(queries.Q2, name="q", trace=True)
        assert self._spill_mid_flight(session, handle) > 0

        task = session.scheduler.shed(handle.task, reason="test eviction")
        assert task.state == SHED
        assert task.done
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0
        assert handle.trace().counts().get("query_shed") == 1
        with pytest.raises(QueryShedError, match="test eviction"):
            handle.result()

    def test_raising_operator_finally_cannot_leave_a_zombie(self):
        db = _db()
        session = db.connect()
        handle = session.submit(queries.Q1, name="q")
        session.step()  # arm: one slice so the task is mid-flight

        def nasty():
            try:
                while True:
                    yield PULSE
            finally:
                raise RuntimeError("operator finally boom")

        task = handle.task
        task.gen.close()
        gen = nasty()
        next(gen)  # enter the try so close() runs the finally
        task.gen = gen
        with pytest.raises(RuntimeError, match="finally boom"):
            session.scheduler.cancel(task)
        # Despite the raise, the task is terminally cancelled and its
        # indicator was aborted — no zombie with a live ticker.
        assert task.state == CANCELLED
        assert task.done
        assert task.indicator.finalized
        assert task.log is not None

