"""The multi-tenant query service front-end.

:class:`QueryService` is the overload-robust layer the paper's §6 load
management gestures at, built on the progress indicator's estimates:

* **Admission control** — every submission is costed with the
  optimizer's initial estimate (the same number the indicator starts
  from) and gated on per-tenant budgets and service-wide saturation
  before any scheduler task exists.  Outcomes are explicit: admitted,
  queued (bounded admission queue), or rejected
  (:class:`~repro.errors.AdmissionRejectedError`).
* **Load shedding** — at slice boundaries the
  :class:`~repro.service.shedding.SheddingPolicy` consumes each query's
  own remaining-time estimate; queries persistently predicted to miss
  their deadline are demoted and eventually evicted (terminal ``shed``
  state), freeing capacity for queries that can still make it.
* **Fair share** — slices are charged in U to each query's tenant and
  the ``weighted_fair`` policy converges backlogged tenants to U shares
  proportional to their weights.

The service *owns* its :class:`CooperativeScheduler` — constructing one
directly is reserved to this package and :mod:`repro.sched` itself (lint
rule REPRO011), so every production query path goes through admission
accounting.  :class:`repro.api.Session` is a thin facade over a service
whose default config is fully permissive; both hand out the same
:class:`QueryHandle` objects.

Everything runs on the database's virtual clock: a saturation benchmark
with thousands of in-flight queries is deterministic and replayable.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.config import DEFAULT_QUANTUM_PAGES, ServiceConfig
from repro.core.history import ProgressLog
from repro.core.report import ProgressReport
from repro.core.segments import planned_cost_pages
from repro.database import Database, MonitoredResult
from repro.errors import AdmissionRejectedError, ProgressError
from repro.executor.runtime import QueryResult
from repro.obs import resolve_trace
from repro.obs.bus import SealedTrace, TraceBus
from repro.obs.events import AdmissionDecided
from repro.planner.optimizer import PlannedQuery
from repro.sched.scheduler import CooperativeScheduler
from repro.sched.task import (
    CANCELLED,
    FAILED,
    SHED,
    TIMED_OUT,
    QueryTask,
    next_task_name,
)
from repro.service.admission import (
    ADMISSION_REJECTED,
    ADMITTED,
    QUEUED,
    AdmissionController,
)
from repro.service.shedding import DEPRIORITIZE, EVICT, SheddingPolicy
from repro.service.tenant import Tenant, TenantRegistry


class QueryHandle:
    """One submitted query: admission outcome, progress, result,
    cancellation, trace.

    A handle exists for every submission, even when no scheduler task
    does (queued or rejected submissions) — ``outcome`` says which, and
    ``task`` is ``None`` until admission.  Handles returned by
    :meth:`repro.api.Session.submit` are always admitted.
    """

    def __init__(
        self,
        service: "QueryService",
        name: str,
        tenant: str,
        predicted_cost_pages: float,
        submitted_at: float,
    ) -> None:
        self._service = service
        self.name = name
        self.tenant = tenant
        #: The optimizer's initial cost estimate the admission decision
        #: was gated on, in pages of U.
        self.predicted_cost_pages = predicted_cost_pages
        self.submitted_at = submitted_at
        #: Admission outcome: "admitted", "queued" or "rejected".
        #: Queued submissions flip to "admitted" when capacity frees up.
        self.outcome: str = QUEUED
        #: The scheduler task, once admitted.
        self.task: Optional[QueryTask] = None
        self.rejection: Optional[AdmissionRejectedError] = None
        self._cancelled_in_queue = False

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """Lifecycle state; adds "queued"/"rejected" ahead of the task
        states of :mod:`repro.sched.task`."""
        if self.outcome == ADMISSION_REJECTED:
            return ADMISSION_REJECTED
        if self._cancelled_in_queue:
            return CANCELLED
        if self.task is None:
            return QUEUED
        return self.task.state

    @property
    def done(self) -> bool:
        """True once no further execution can happen for this submission."""
        if self.outcome == ADMISSION_REJECTED or self._cancelled_in_queue:
            return True
        return self.task is not None and self.task.done

    def progress(self) -> Optional[ProgressReport]:
        """The indicator's current report; None before admission or for
        unmonitored queries.

        Valid at any time: before the first slice, mid-flight, and after
        completion (where it reports the final state).
        """
        return None if self.task is None else self.task.progress()

    def first_report_time(self) -> Optional[float]:
        """Virtual instant of the first user-visible progress report
        (None until one exists) — the submit-to-first-report latency
        numerator in the saturation benchmark."""
        task = self.task
        if task is None or task.indicator is None:
            return None
        reports = task.indicator.reports
        return reports[0].time if reports else None

    def result(self) -> QueryResult:
        """Drive the service until this query completes; return its rows.

        The whole workload advances meanwhile (admission queue, every
        in-flight query, the shedding loop); the others stay in flight
        once this one is done.  Raises :class:`AdmissionRejectedError`
        for a rejected submission, the stored error for failed /
        timed-out / shed queries, and :class:`ProgressError` for a
        cancelled one or one that cannot finish because nothing is
        runnable (its task is suspended).
        """
        if self.rejection is not None:
            raise self.rejection
        if self._cancelled_in_queue:
            raise ProgressError(f"query {self.name!r} was cancelled")
        task = self._service._pump(self)
        if task.state in (FAILED, TIMED_OUT, SHED):
            assert task.error is not None
            raise task.error
        if task.state == CANCELLED:
            raise ProgressError(f"query {task.name!r} was cancelled")
        assert task.result is not None
        return task.result

    def cancel(self) -> Optional[ProgressLog]:
        """Cancel the submission, admitted or still queued; returns its
        progress log (None if unmonitored or never admitted).

        Idempotent.  Mid-segment state is unwound cooperatively: buffer
        pins release, temp files drop, and the final report keeps
        ``finished=False``.
        """
        self._service._cancel_handle(self)
        return self.log

    def trace(self) -> Optional[SealedTrace]:
        """Sealed view of the query's trace stream (None until admitted)."""
        return None if self.task is None else self.task.sealed_trace()

    @property
    def log(self) -> Optional[ProgressLog]:
        """The full progress history once the query is done, else None."""
        return None if self.task is None else self.task.log

    def monitored(self) -> MonitoredResult:
        """Result, log, indicator and sealed trace as one
        :class:`~repro.database.MonitoredResult` bundle.

        Drives the query to completion first (like ``.result()``); only
        valid for monitored queries.
        """
        result = self.result()
        task = self.task
        assert task is not None
        if task.indicator is None:
            raise ProgressError(
                f"query {self.name!r} was submitted with monitor=False"
            )
        assert task.log is not None
        return MonitoredResult(
            result=result,
            log=task.log,
            indicator=task.indicator,
            trace=self.trace(),
        )

    def __repr__(self) -> str:
        return f"QueryHandle({self.name!r}, state={self.state})"


class _Pending:
    """A queued submission: everything needed to admit it later."""

    __slots__ = ("handle", "planned", "sql", "tenant_obj", "kwargs")

    def __init__(
        self,
        handle: QueryHandle,
        planned: PlannedQuery,
        sql: str,
        tenant_obj: Tenant,
        kwargs: dict,
    ) -> None:
        self.handle = handle
        self.planned = planned
        self.sql = sql
        self.tenant_obj = tenant_obj
        self.kwargs = kwargs


class QueryService:
    """Admission control + load shedding + fair share over one scheduler."""

    def __init__(
        self,
        db: Database,
        config: Optional[ServiceConfig] = None,
        policy: str = "weighted_fair",
        quantum_pages: int = DEFAULT_QUANTUM_PAGES,
        trace: Union[None, bool, TraceBus] = None,
    ) -> None:
        self.db = db
        self.config = db.config.service if config is None else config
        self.scheduler = CooperativeScheduler(
            db, policy=policy, quantum_pages=quantum_pages
        )
        self.scheduler.on_retire = self._on_retire
        self.tenants = TenantRegistry(
            default_cost_budget_pages=self.config.tenant_cost_budget_pages,
        )
        self.admission = AdmissionController(self.config)
        self.shedding = SheddingPolicy(
            self.config, db.config.page_size, db.config.progress.warmup
        )
        #: Bounded admission queue (bound enforced by the controller).
        self.queue: deque[_Pending] = deque()
        #: Service-level trace stream: admission decisions.
        #: (Per-query events land in each task's own bus, as always.)
        self.trace = resolve_trace(trace)
        #: Lifecycle tallies across all submissions.
        self.counters: dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "queued": 0,
            "rejected": 0,
            "finished": 0,
            "failed": 0,
            "cancelled": 0,
            "timed_out": 0,
            "shed": 0,
            "deprioritized": 0,
        }
        self._handles: dict[str, QueryHandle] = {}
        self._inflight = 0

    # ------------------------------------------------------------------
    # tenants

    def register_tenant(
        self,
        name: str,
        weight: Optional[float] = None,
        cost_budget_pages: Optional[float] = None,
    ) -> Tenant:
        """Set a tenant's fair-share weight and/or admission budget.

        Unregistered tenants spring into existence on first submit with
        the configured defaults; registration is only needed to differ
        from them.
        """
        return self.tenants.register(
            name, weight=weight, cost_budget_pages=cost_budget_pages
        )

    @property
    def inflight(self) -> int:
        """Admitted, not-yet-terminal query count."""
        return self._inflight

    @property
    def handles(self) -> list[QueryHandle]:
        """Every submission's handle, in submission order."""
        return list(self._handles.values())

    # ------------------------------------------------------------------
    # submission

    def submit(
        self,
        query: Union[str, PlannedQuery],
        *,
        tenant: str = "default",
        name: Optional[str] = None,
        monitor: bool = True,
        trace: Union[None, bool, TraceBus] = None,
        priority: int = 0,
        keep_rows: bool = True,
        max_rows: Optional[int] = None,
        on_report=None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        estimator: Optional[str] = None,
    ) -> QueryHandle:
        """Submit a query on behalf of ``tenant``; never raises on load.

        The admission verdict is on the returned handle: ``outcome`` is
        "admitted" (a scheduler task exists, ``handle.task``), "queued"
        (waiting for capacity — admitted automatically as the workload
        drains) or "rejected" (admission queue full;
        ``handle.result()`` raises
        :class:`~repro.errors.AdmissionRejectedError`).

        Execution kwargs are those of
        :meth:`CooperativeScheduler.submit`.  A non-positive ``timeout``
        raises :class:`ProgressError` before anything is counted.
        """
        # Here, not only in the scheduler: a queued submission reaches the
        # scheduler later, inside another query's retirement.
        if timeout is not None and timeout <= 0:
            raise ProgressError("timeout must be positive")
        if isinstance(query, PlannedQuery):
            planned, sql = query, "<planned>"
        else:
            sql = query
            planned = self.db.prepare(sql)
        if name is None:
            name = next_task_name(self._handles)
        if name in self._handles:
            raise ProgressError(f"task {name!r} already submitted")

        tenant_obj = self.tenants.get(tenant)
        predicted = planned_cost_pages(planned)
        now = self.db.clock.now
        handle = QueryHandle(self, name, tenant, predicted, now)
        self._handles[name] = handle
        self.counters["submitted"] += 1

        decision = self.admission.decide(
            tenant_obj, predicted, self._inflight, len(self.queue)
        )
        kwargs = dict(
            monitor=monitor,
            trace=trace,
            priority=priority,
            keep_rows=keep_rows,
            max_rows=max_rows,
            on_report=on_report,
            timeout=timeout,
            deadline=deadline,
            estimator=estimator,
        )
        self._emit_admission(handle, decision.outcome, decision.reason)
        if decision.outcome == ADMITTED:
            self._admit(handle, planned, sql, tenant_obj, kwargs)
        elif decision.outcome == QUEUED:
            handle.outcome = QUEUED
            tenant_obj.queued += 1
            self.counters["queued"] += 1
            self.queue.append(
                _Pending(handle, planned, sql, tenant_obj, kwargs)
            )
        else:
            handle.outcome = ADMISSION_REJECTED
            handle.rejection = AdmissionRejectedError(
                f"query {name!r} (tenant {tenant!r}) rejected: "
                f"{decision.reason}"
            )
            tenant_obj.rejected += 1
            self.counters["rejected"] += 1
        return handle

    def _admit(
        self,
        handle: QueryHandle,
        planned: PlannedQuery,
        sql: str,
        tenant_obj: Tenant,
        kwargs: dict,
    ) -> None:
        task = self.scheduler.submit(planned, name=handle.name, **kwargs)
        task.sql = sql
        task.tenant = tenant_obj.name
        task.tenant_ref = tenant_obj
        handle.task = task
        handle.outcome = ADMITTED
        tenant_obj.admitted += 1
        tenant_obj.inflight += 1
        tenant_obj.inflight_cost_pages += handle.predicted_cost_pages
        self._inflight += 1
        self.counters["admitted"] += 1

    def _emit_admission(
        self, handle: QueryHandle, outcome: str, reason: str
    ) -> None:
        if self.trace is None:
            return
        self.trace.emit(
            AdmissionDecided(
                t=self.db.clock.now,
                tenant=handle.tenant,
                query=handle.name,
                outcome=outcome,
                reason=reason,
                predicted_cost_pages=handle.predicted_cost_pages,
                inflight=self._inflight,
                queued=len(self.queue),
            )
        )

    # ------------------------------------------------------------------
    # driving

    def step(self) -> Optional[QueryTask]:
        """Admit what capacity allows, grant one slice, run the policy
        check on the sliced query; None when nothing is runnable."""
        self._drain_queue()
        task = self.scheduler.step()
        if (
            task is not None
            and self.config.shedding
            and task.deadline is not None
        ):
            self._policy_check(task)
        return task

    def run(self) -> list[QueryHandle]:
        """Drive until nothing is runnable (all admitted work terminal)."""
        while self.step() is not None:
            pass
        return self.handles

    def _pump(self, handle: QueryHandle, until_done: bool = True) -> QueryTask:
        """Step the whole workload until ``handle`` is admitted and, with
        ``until_done``, terminal; other queries advance too.

        The one drive loop behind ``QueryHandle.result()`` and the
        session's blocking admission.  After a step that found nothing
        runnable the handle gets one more look (that step's watchdog
        sweep may have timed it out), then :class:`ProgressError`.
        """
        stalled = False
        while True:
            task = handle.task
            if task is not None and (task.done or not until_done):
                return task
            if stalled:
                raise ProgressError(
                    f"query {handle.name!r} cannot "
                    + ("be admitted" if task is None else "finish")
                    + ": nothing runnable"
                )
            stalled = self.step() is None

    def _drain_queue(self) -> None:
        """Admit queued submissions in order as capacity allows.

        Tenant-throttled entries are skipped (a later tenant's query may
        still fit); the first *global* saturation verdict stops the scan
        — nothing behind it could admit either, which keeps the common
        saturated case O(1).
        """
        if not self.queue:
            return
        remaining: deque[_Pending] = deque()
        while self.queue:
            pending = self.queue.popleft()
            handle = pending.handle
            if handle._cancelled_in_queue:
                continue
            # queued=0: the queue-full rejection is for *new* arrivals;
            # re-evaluation of already-queued work never rejects.
            decision = self.admission.decide(
                pending.tenant_obj,
                handle.predicted_cost_pages,
                self._inflight,
                0,
            )
            if decision.outcome == ADMITTED:
                self._emit_admission(handle, ADMITTED, "promoted from queue")
                self._admit(
                    handle,
                    pending.planned,
                    pending.sql,
                    pending.tenant_obj,
                    pending.kwargs,
                )
            elif decision.tenant_throttled:
                remaining.append(pending)  # others may still fit
            else:
                remaining.append(pending)
                remaining.extend(self.queue)  # global saturation: stop
                self.queue.clear()
        self.queue = remaining

    def _policy_check(self, task: QueryTask) -> None:
        decision = self.shedding.evaluate(task, self.db.clock.now)
        if decision.action == DEPRIORITIZE:
            task.demotions += 1
            self.counters["deprioritized"] += 1
        elif decision.action == EVICT:
            self.scheduler.shed(task, reason=decision.reason)

    # ------------------------------------------------------------------
    # retirement

    def _on_retire(self, task: QueryTask) -> None:
        """Scheduler hook: settle accounting exactly once per task,
        however it reached its terminal state."""
        self.shedding.forget(task.name)
        handle = self._handles.get(task.name)
        if handle is None or handle.task is not task:
            # Submitted around the service (tests driving the scheduler
            # directly) — nothing to settle.
            return
        self._inflight -= 1
        self.counters[task.state] = self.counters.get(task.state, 0) + 1
        ref = task.tenant_ref
        if ref is not None:
            ref.inflight -= 1
            ref.inflight_cost_pages = max(
                0.0, ref.inflight_cost_pages - handle.predicted_cost_pages
            )
            if task.state == SHED:
                ref.shed += 1
        # Capacity freed: queued submissions may admit right now, so a
        # caller pumping only step() sees promotions without extra calls.
        self._drain_queue()

    def _cancel_handle(self, handle: QueryHandle) -> None:
        if handle.task is not None:
            self.scheduler.cancel(handle.task)
            return
        if handle.outcome == QUEUED and not handle._cancelled_in_queue:
            handle._cancelled_in_queue = True
            self.counters["cancelled"] += 1
            # Lazy removal: _drain_queue drops cancelled entries.

    def __repr__(self) -> str:
        return (
            f"QueryService({self.counters['submitted']} submitted, "
            f"{self._inflight} in flight, {len(self.queue)} queued)"
        )
