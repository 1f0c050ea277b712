"""Unit tests: the multi-tenant query service (admission, shedding,
fair share, tenant accounting)."""

from __future__ import annotations

import pytest

from repro.config import ServiceConfig, SystemConfig
from repro.errors import AdmissionRejectedError, ProgressError, QueryShedError
from repro.sched.task import FINISHED, SHED, TIMED_OUT
from repro.service import ADMISSION_REJECTED, ADMITTED, QUEUED
from repro.workloads import queries, tpcr


def _db(**service_kwargs):
    config = SystemConfig(work_mem_pages=8, buffer_pool_pages=24)
    if service_kwargs:
        config = config.with_service(**service_kwargs)
    return tpcr.build_database(scale=0.002, subset_rows=60, config=config)


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_inflight", 0),
            ("admission_queue_limit", -1),
            ("deprioritize_after", 0),
            ("shed_after", 0),
            ("policy_interval", -0.5),
        ],
    )
    def test_values_that_break_the_service_are_rejected(self, field, value):
        with pytest.raises(ProgressError, match=field):
            ServiceConfig(**{field: value})


class TestAdmission:
    def test_permissive_defaults_admit_immediately(self):
        db = _db()
        service = db.service()
        handle = service.submit(queries.Q1, name="q")
        assert handle.outcome == ADMITTED
        assert handle.task is not None
        assert service.inflight == 1
        assert handle.result().row_count > 0
        assert handle.state == FINISHED
        assert service.inflight == 0
        assert service.counters["admitted"] == 1
        assert service.counters["finished"] == 1

    def test_saturation_queues_then_promotes(self):
        db = _db(max_inflight=1)
        service = db.service()
        first = service.submit(queries.Q1, name="a")
        second = service.submit(queries.Q1, name="b")
        assert first.outcome == ADMITTED
        assert second.outcome == QUEUED
        assert second.task is None
        assert len(service.queue) == 1
        # Draining the first frees capacity; the retire hook promotes
        # the queued submission without any extra calls.
        first.result()
        assert second.outcome == ADMITTED
        assert second.task is not None
        assert second.result().row_count > 0
        assert service.counters["queued"] == 1

    def test_full_admission_queue_rejects(self):
        db = _db(max_inflight=1, admission_queue_limit=1)
        service = db.service()
        service.submit(queries.Q1, name="a")
        service.submit(queries.Q1, name="b")
        third = service.submit(queries.Q1, name="c")
        assert third.outcome == ADMISSION_REJECTED
        assert third.task is None
        assert third.done
        assert third.state == ADMISSION_REJECTED
        with pytest.raises(AdmissionRejectedError, match="queue full"):
            third.result()
        assert service.counters["rejected"] == 1

    def test_tenant_budget_throttles_second_query(self):
        db = _db()
        service = db.service()
        # Budget far below any query's predicted cost: the first query
        # admits anyway (nothing else in flight — queueing it could
        # never succeed), the second throttles.
        service.register_tenant("acme", cost_budget_pages=1.0)
        first = service.submit(queries.Q1, name="a", tenant="acme")
        second = service.submit(queries.Q1, name="b", tenant="acme")
        assert first.outcome == ADMITTED
        assert second.outcome == QUEUED
        # Another tenant is not affected by acme's budget.
        other = service.submit(queries.Q1, name="c", tenant="other")
        assert other.outcome == ADMITTED
        service.run()
        assert first.state == FINISHED
        assert second.state == FINISHED  # promoted once a's cost settled
        acme = service.tenants.get("acme")
        assert acme.inflight == 0
        assert acme.inflight_cost_pages == 0.0

    def test_admission_events_on_service_trace(self):
        db = _db(admission_queue_limit=1)
        service = db.service(trace=True)
        service.register_tenant("acme", cost_budget_pages=1.0)
        service.submit(queries.Q1, name="a", tenant="acme")
        service.submit(queries.Q1, name="b", tenant="acme")
        service.submit(queries.Q1, name="c", tenant="acme")
        service.run()
        counts = service.trace.counts()
        # a admitted; b queued (tenant budget) then promoted; c rejected.
        assert counts["admission_decided"] == 4
        assert counts["tenant_throttled"] == 1
        outcomes = [e.outcome for e in service.trace.of_kind("admission_decided")]
        assert outcomes == ["admitted", "queued", "rejected", "admitted"]

    def test_duplicate_name_rejected(self):
        service = _db().service()
        service.submit(queries.Q1, name="q")
        with pytest.raises(ProgressError, match="already submitted"):
            service.submit(queries.Q1, name="q")

    @pytest.mark.parametrize("timeout", [0.0, -5.0])
    def test_non_positive_timeout_admitted_at_once_leaves_no_trace(self, timeout):
        service = _db().service()
        with pytest.raises(ProgressError, match="timeout must be positive"):
            service.submit(queries.Q1, name="q", timeout=timeout)
        assert service.handles == []
        assert service.counters["submitted"] == 0
        assert service.inflight == 0
        # The name was never taken.
        assert service.submit(queries.Q1, name="q").result().row_count > 0

    def test_non_positive_timeout_behind_capacity_fails_nobody_else(self):
        db = _db(max_inflight=1)
        service = db.service()
        first = service.submit(queries.Q1, name="a")
        with pytest.raises(ProgressError, match="timeout must be positive"):
            service.submit(queries.Q1, name="b", timeout=0.0)
        third = service.submit(queries.Q1, name="c")
        assert third.outcome == QUEUED
        service.run()
        assert first.state == FINISHED and third.state == FINISHED
        assert [h.name for h in service.handles] == ["a", "c"]
        assert service.counters["submitted"] == 2
        assert service.counters["finished"] == 2
        assert service.inflight == 0 and not service.queue

    def test_cancel_queued_submission(self):
        db = _db(max_inflight=1)
        service = db.service()
        first = service.submit(queries.Q1, name="a")
        second = service.submit(queries.Q1, name="b")
        second.cancel()
        assert second.done
        first.result()
        service.run()
        assert second.task is None  # never admitted
        with pytest.raises(ProgressError, match="cancelled"):
            second.result()


class TestShedding:
    def _shedding_db(self):
        return _db(
            shedding=True,
            policy_interval=0.5,
            deprioritize_after=1,
            shed_after=3,
        )

    def test_query_predicted_to_miss_is_shed_before_its_deadline(self):
        db = self._shedding_db()
        service = db.service()
        # Q2 needs tens of virtual seconds at this scale; the policy
        # should evict it well before the watchdog would.
        deadline = db.clock.now + 10.0
        handle = service.submit(queries.Q2, name="doomed", deadline=deadline)
        with pytest.raises(QueryShedError, match="predicted to miss"):
            handle.result()
        task = handle.task
        assert task.state == SHED
        assert task.finished_at < deadline  # evicted early, not at expiry
        assert db.buffer_pool.pinned_count == 0
        assert db.disk.temp_file_count() == 0
        assert service.counters["shed"] == 1
        assert service.tenants.get("default").shed == 1

    def test_shedding_disabled_same_query_times_out_instead(self):
        db = _db(shedding=False)
        service = db.service()
        deadline = db.clock.now + 10.0
        handle = service.submit(queries.Q2, name="doomed", deadline=deadline)
        with pytest.raises(Exception) as exc_info:
            handle.result()
        assert not isinstance(exc_info.value, QueryShedError)
        assert handle.task.state == TIMED_OUT
        assert handle.task.finished_at >= deadline

    def test_no_deadline_means_no_shedding(self):
        db = self._shedding_db()
        service = db.service()
        handle = service.submit(queries.Q2, name="free", keep_rows=False)
        assert handle.result().row_count > 0
        assert handle.state == FINISHED

    def test_unmonitored_query_is_never_shed(self):
        # No indicator -> no estimate -> no action: the watchdog, not
        # the shedding policy, ends an unmonitored doomed query.
        db = self._shedding_db()
        service = db.service()
        deadline = db.clock.now + 5.0
        handle = service.submit(
            queries.Q2, name="blind", monitor=False, deadline=deadline
        )
        with pytest.raises(Exception):
            handle.result()
        assert handle.task.state == TIMED_OUT

    def test_makeable_deadline_is_not_shed(self):
        db = self._shedding_db()
        service = db.service()
        handle = service.submit(
            queries.Q1, name="fine", deadline=db.clock.now + 1e6
        )
        assert handle.result().row_count > 0
        assert handle.state == FINISHED


class TestFairShare:
    def test_weighted_tenants_split_u_by_weight(self):
        db = _db()
        service = db.service(policy="weighted_fair")
        service.register_tenant("gold", weight=3.0)
        service.register_tenant("bronze", weight=1.0)
        g = service.submit(queries.Q2, name="g", tenant="gold", keep_rows=False)
        b = service.submit(queries.Q2, name="b", tenant="bronze", keep_rows=False)
        # Identical queries: while both are backlogged, U splits 3:1, so
        # gold must finish first — at that instant it has been granted
        # ~3x bronze's U.
        while not g.done and not b.done:
            assert service.step() is not None
        gold = service.tenants.get("gold")
        bronze = service.tenants.get("bronze")
        assert g.done and not b.done
        assert gold.consumed_pages > 0 and bronze.consumed_pages > 0
        ratio = gold.consumed_pages / bronze.consumed_pages
        assert 2.0 < ratio < 4.5  # converging on 3:1 while backlogged

    def test_default_policy_charges_tenants(self):
        db = _db()
        service = db.service()
        service.submit(queries.Q1, name="q", tenant="acme", keep_rows=False)
        service.run()
        assert service.tenants.get("acme").consumed_pages > 0


class TestSessionFacade:
    def test_session_blocks_until_admitted_under_limits(self):
        db = _db(max_inflight=1)
        session = db.connect()
        a = session.submit(queries.Q1, name="a", keep_rows=False)
        # Under max_inflight=1 this submit pumps the workload until the
        # service admits it — a finishes in the process.
        b = session.submit(queries.Q1, name="b", keep_rows=False)
        assert a.done
        assert b.result().row_count > 0

    def test_session_surfaces_rejection(self):
        db = _db(max_inflight=1, admission_queue_limit=0)
        session = db.connect()
        session.submit(queries.Q1, name="a")
        with pytest.raises(AdmissionRejectedError):
            session.submit(queries.Q1, name="b")
        # The rejected submission still has a handle.
        assert [h.state for h in session.handles] == ["pending", ADMISSION_REJECTED]

    def test_session_service_accounting_settles(self):
        db = _db()
        session = db.connect()
        session.submit(queries.Q1, name="a", keep_rows=False)
        session.submit(queries.Q3, name="b", keep_rows=False)
        session.run()
        assert session.service.inflight == 0
        tenant = session.service.tenants.get("default")
        assert tenant.inflight == 0
        assert tenant.inflight_cost_pages == 0.0
        assert session.service.counters["finished"] == 2
