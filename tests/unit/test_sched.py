"""Unit tests for the cooperative multi-query scheduler (repro.sched)."""

from __future__ import annotations

import pytest

from repro.errors import ProgressError
from repro.sched import (
    CANCELLED,
    CooperativeScheduler,
    FINISHED,
    PriorityPolicy,
    RoundRobinPolicy,
    SUSPENDED,
    make_policy,
)
from repro.workloads import queries, tpcr


def _db():
    return tpcr.build_database(scale=0.002, subset_rows=60)


# ----------------------------------------------------------------------
# policies


class TestPolicies:
    def test_make_policy_round_robin(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)

    def test_make_policy_priority(self):
        assert isinstance(make_policy("priority"), PriorityPolicy)

    def test_make_policy_unknown_raises(self):
        with pytest.raises(ProgressError, match="unknown scheduling policy"):
            make_policy("fifo")

    def test_round_robin_rotates_fairly(self):
        sched = CooperativeScheduler(_db(), policy="round_robin")
        sched.submit(queries.Q1, name="a", keep_rows=False)
        sched.submit(queries.Q1, name="b", keep_rows=False)
        sched.submit(queries.Q1, name="c", keep_rows=False)
        order = [sched.step().name for _ in range(6)]
        assert order == ["a", "b", "c", "a", "b", "c"]

    def test_priority_runs_higher_class_first(self):
        sched = CooperativeScheduler(_db(), policy="priority")
        sched.submit(queries.Q1, name="low", keep_rows=False, priority=0)
        sched.submit(queries.Q1, name="high", keep_rows=False, priority=5)
        # The high-priority task monopolizes slices until it finishes.
        task = sched.step()
        assert task.name == "high"
        while sched.tasks["high"].state != FINISHED:
            assert sched.step().name == "high"
        assert sched.step().name == "low"


# ----------------------------------------------------------------------
# scheduling mechanics


class TestScheduling:
    def test_quantum_must_be_positive(self):
        with pytest.raises(ProgressError, match="quantum_pages"):
            CooperativeScheduler(_db(), quantum_pages=0)

    def test_duplicate_name_rejected(self):
        sched = CooperativeScheduler(_db())
        sched.submit(queries.Q1, name="q", keep_rows=False)
        with pytest.raises(ProgressError, match="already submitted"):
            sched.submit(queries.Q1, name="q", keep_rows=False)

    def test_auto_names_follow_submission_order(self):
        sched = CooperativeScheduler(_db())
        t1 = sched.submit(queries.Q1, keep_rows=False)
        t2 = sched.submit(queries.Q2, keep_rows=False)
        assert (t1.name, t2.name) == ("q1", "q2")

    def test_auto_name_skips_an_explicitly_taken_name(self):
        sched = CooperativeScheduler(_db())
        sched.submit(queries.Q1, name="q2", keep_rows=False)
        assert sched.submit(queries.Q1, keep_rows=False).name == "q3"

    def test_all_tasks_finish_and_interleave(self):
        sched = CooperativeScheduler(_db())
        sched.submit(queries.Q1, name="a", keep_rows=False)
        sched.submit(queries.Q2, name="b", keep_rows=False)
        tasks = sched.run()
        assert all(t.state == FINISHED for t in tasks)
        # Interleaving: neither task ran in one uninterrupted block.
        order = [s.task for s in sched.slices]
        first_b = order.index("b")
        assert "a" in order[first_b:]

    def test_slices_are_bounded_by_the_quantum(self):
        sched = CooperativeScheduler(_db(), quantum_pages=2)
        task = sched.submit(queries.Q1, name="a", keep_rows=False)
        sched.run()
        # Every suspended slice stopped within a page of the budget.
        for record in task.slices:
            if record.reason == "quantum":
                assert record.pages <= sched.quantum_pages + 1

    def test_unmonitored_task_runs_on_pulse_fallback(self):
        sched = CooperativeScheduler(_db())
        task = sched.submit(queries.Q1, name="a", monitor=False)
        sched.run()
        assert task.state == FINISHED
        assert task.log is None
        assert task.progress() is None
        assert task.result.row_count == task.row_count

    def test_run_until_leaves_others_in_flight(self):
        sched = CooperativeScheduler(_db())
        a = sched.submit(queries.Q1, name="a", keep_rows=False)
        b = sched.submit(queries.Q2, name="b", keep_rows=False)
        while not a.done:
            assert sched.step() is not None
        assert a.state == FINISHED
        assert b.state == SUSPENDED
        assert len(b.slices) > 0

    def test_per_owner_disk_counters(self):
        db = _db()
        db.restart()  # cold pool so the scan really reads
        sched = CooperativeScheduler(db)
        sched.submit(queries.Q1, name="scan", keep_rows=False)
        sched.run()
        io = db.disk.owner_counters("scan")
        assert io["seq_reads"] + io["random_reads"] > 0
        assert db.disk.owner_counters("nobody")["seq_reads"] == 0

    def test_suspend_blocks_and_resume_unblocks(self):
        sched = CooperativeScheduler(_db())
        a = sched.submit(queries.Q1, name="a", keep_rows=False)
        b = sched.submit(queries.Q1, name="b", keep_rows=False)
        sched.suspend("a")
        while b.state != FINISHED:
            assert sched.step().name == "b"
        assert sched.step() is None  # only the blocked task remains
        assert not a.done
        sched.resume(a)
        sched.run()
        assert a.state == FINISHED

    def test_interleaved_queries_return_their_solo_rows(self):
        workload = {"scan": "select * from orders", "join": queries.Q2}
        sched = CooperativeScheduler(_db())
        tasks = [sched.submit(sql, name=name) for name, sql in workload.items()]
        sched.run()
        assert {s.task for s in sched.slices[:2]} == set(workload)
        for task in tasks:
            solo = _db().connect().execute(workload[task.name])
            assert task.result.rows == solo.rows
            assert solo.row_count > 0


# ----------------------------------------------------------------------
# determinism


def _interleaving(policy: str):
    sched = CooperativeScheduler(_db(), policy=policy)
    sched.submit(queries.Q1, name="a", keep_rows=False)
    sched.submit(queries.Q2, name="b", keep_rows=False, priority=1)
    sched.submit(queries.Q4, name="c", keep_rows=False)
    tasks = sched.run()
    reports = {
        t.name: [(r.elapsed, r.fraction_done) for r in t.log.reports]
        for t in tasks
    }
    return sched.slices, reports


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["round_robin", "priority"])
    def test_same_policy_replays_identical_interleaving(self, policy):
        slices1, reports1 = _interleaving(policy)
        slices2, reports2 = _interleaving(policy)
        assert slices1 == slices2
        assert reports1 == reports2

    def test_policies_differ(self):
        slices_rr, _ = _interleaving("round_robin")
        slices_pr, _ = _interleaving("priority")
        assert [s.task for s in slices_rr] != [s.task for s in slices_pr]


# ----------------------------------------------------------------------
# cancellation


class TestCancellation:
    def test_cancel_mid_segment_releases_buffer_pins(self):
        db = _db()
        db.restart()
        sched = CooperativeScheduler(db)
        task = sched.submit(queries.Q1, name="scan", keep_rows=False)
        # Run until the scan is suspended mid-page with a pin held.
        while db.buffer_pool.pinned_count == 0:
            assert sched.step() is not None
        assert task.state == SUSPENDED
        sched.cancel(task)
        assert task.state == CANCELLED
        assert db.buffer_pool.pinned_count == 0

    def test_cancel_aborts_the_indicator(self):
        sched = CooperativeScheduler(_db())
        task = sched.submit(queries.Q1, name="a", keep_rows=False, trace=True)
        for _ in range(3):
            sched.step()
        sched.cancel(task)
        final = task.log.final()
        assert final.finished is False
        assert final.fraction_done < 1.0
        assert task.trace_bus.counts().get("query_cancelled") == 1

    def test_cancel_is_idempotent_and_by_name(self):
        sched = CooperativeScheduler(_db())
        task = sched.submit(queries.Q1, name="a", keep_rows=False)
        sched.step()
        sched.cancel("a")
        assert sched.cancel("a").state == CANCELLED
        assert task.finished_at is not None

    def test_cancel_unknown_name_raises(self):
        sched = CooperativeScheduler(_db())
        with pytest.raises(ProgressError, match="unknown task"):
            sched.cancel("ghost")

    def test_cancelled_task_does_not_block_the_rest(self):
        sched = CooperativeScheduler(_db())
        a = sched.submit(queries.Q1, name="a", keep_rows=False)
        b = sched.submit(queries.Q2, name="b", keep_rows=False)
        sched.step()
        sched.cancel(a)
        sched.run()
        assert b.state == FINISHED
        assert b.log.final().fraction_done == pytest.approx(1.0)
