"""The stable session API: ``Database.connect() -> Session -> QueryHandle``.

One contract for single-query and concurrent execution::

    db = tpcr.build_database(scale=0.01)
    session = db.connect()
    handle = session.submit("select * from lineitem")
    print(handle.progress())          # a ProgressReport, any time
    result = handle.result()          # drives the workload to this
                                      # query's completion
    print(handle.trace())             # sealed, read-only trace view

Several ``submit`` calls before the first ``result()`` run *interleaved*
on the shared virtual clock and buffer pool — waiting on any one handle
pumps the whole workload through the session's cooperative scheduler
(:mod:`repro.sched`).  A :class:`QueryHandle` offers three return
shapes: the plain :class:`~repro.executor.runtime.QueryResult`
(``.result()``), the :class:`~repro.database.MonitoredResult` bundle
(``.monitored()``), and the trace stream (``.trace()``, sealed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.core.history import ProgressLog
from repro.core.report import ProgressReport
from repro.errors import ProgressError
from repro.executor.runtime import QueryResult
from repro.obs.bus import SealedTrace, TraceBus
from repro.planner.optimizer import PlannedQuery
from repro.sched.scheduler import DEFAULT_QUANTUM_PAGES
from repro.sched.task import CANCELLED, FAILED, SHED, TIMED_OUT, QueryTask

if TYPE_CHECKING:  # pragma: no cover - circular at import time only
    from repro.database import Database, MonitoredResult


class QueryHandle:
    """One submitted query: progress, result, cancellation, trace."""

    def __init__(self, session: "Session", task: QueryTask) -> None:
        self._session = session
        self._task = task

    # ------------------------------------------------------------------
    # identity

    @property
    def name(self) -> str:
        return self._task.name

    @property
    def state(self) -> str:
        """Lifecycle state (see :mod:`repro.sched.task` constants)."""
        return self._task.state

    @property
    def done(self) -> bool:
        return self._task.done

    @property
    def task(self) -> QueryTask:
        """The underlying scheduler task (escape hatch for tests/tools)."""
        return self._task

    # ------------------------------------------------------------------
    # the contract

    def progress(self) -> Optional[ProgressReport]:
        """The indicator's current report; None for unmonitored queries.

        Valid at any time: before the first slice, mid-flight, and after
        completion (where it reports the final state).
        """
        return self._task.progress()

    def result(self) -> QueryResult:
        """Drive the session until this query completes; return its result.

        Other in-flight queries advance too (cooperative interleaving).
        Raises the original executor error for a failed query,
        :class:`~repro.errors.QueryTimeoutError` for a timed-out one,
        :class:`~repro.errors.QueryShedError` for one evicted by the
        service's load-shedding policy, and :class:`ProgressError` for a
        cancelled one.
        """
        task = self._task
        if not task.done:
            self._session.service.run_until(task)
        if task.state in (FAILED, TIMED_OUT, SHED):
            assert task.error is not None
            raise task.error
        if task.state == CANCELLED:
            raise ProgressError(f"query {task.name!r} was cancelled")
        assert task.result is not None
        return task.result

    def cancel(self) -> Optional[ProgressLog]:
        """Cancel the query; returns its progress log (None if unmonitored).

        Idempotent.  Mid-segment state is unwound cooperatively: buffer
        pins release, temp files drop, and the final report keeps
        ``finished=False``.
        """
        self._session.scheduler.cancel(self._task)
        return self._task.log

    def trace(self) -> Optional[SealedTrace]:
        """Sealed, read-only view of this query's trace stream."""
        return self._task.sealed_trace()

    @property
    def log(self) -> Optional[ProgressLog]:
        """The full progress history once the query is done, else None."""
        return self._task.log

    def monitored(self) -> "MonitoredResult":
        """Result, log, indicator and sealed trace as one
        :class:`MonitoredResult` bundle.

        Drives the query to completion first (like ``.result()``); only
        valid for monitored queries.
        """
        from repro.database import MonitoredResult

        if self._task.indicator is None:
            raise ProgressError(
                f"query {self._task.name!r} was submitted with monitor=False"
            )
        result = self.result()
        assert self._task.log is not None
        return MonitoredResult(
            result=result,
            log=self._task.log,
            indicator=self._task.indicator,
            trace=self.trace(),
        )

    def __repr__(self) -> str:
        return f"QueryHandle({self._task.name!r}, state={self._task.state})"


class Session:
    """A connection-like handle for submitting queries to one Database.

    Queries submitted through one session share its cooperative
    scheduler: they interleave in bounded work quanta on the database's
    single virtual clock.  Separate sessions on the same database are
    independent schedulers (their queries do not interleave with each
    other — submit through one session for a concurrent workload).

    Every session fronts a :class:`~repro.service.QueryService`, so all
    submissions pass through admission control.  The default
    :class:`~repro.config.ServiceConfig` is fully permissive (no limits,
    shedding off) and changes nothing; configure limits via
    ``SystemConfig.with_service(...)`` and this facade honors them —
    ``submit`` then blocks until the service admits the statement
    (pumping the in-flight workload, classic synchronous-connection
    semantics) and raises
    :class:`~repro.errors.AdmissionRejectedError` when the admission
    queue is full.  For non-blocking submission and per-tenant control,
    use :meth:`repro.database.Database.service` directly.
    """

    def __init__(
        self,
        db: "Database",
        policy: str = "round_robin",
        quantum_pages: int = DEFAULT_QUANTUM_PAGES,
    ) -> None:
        from repro.service.service import QueryService

        self.db = db
        self.service = QueryService(
            db, policy=policy, quantum_pages=quantum_pages
        )
        self.scheduler = self.service.scheduler

    # ------------------------------------------------------------------

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
        """Submit a query (SQL text or a prepared plan) for execution.

        No work happens until the session is driven — by this or any
        other handle's ``.result()``, or by :meth:`run`.

        ``tenant`` attributes the query for the service layer's
        admission accounting and fair share (irrelevant under the
        permissive default config).

        ``estimator`` names the progress-estimation strategy for this
        query ("paper", "dne", "tgn", "history", "ensemble", or any name
        registered via :func:`repro.estimators.register_estimator`);
        ``None`` follows ``ProgressConfig.estimator``.

        ``timeout`` (virtual seconds from the query's first slice) or
        ``deadline`` (absolute virtual-clock instant) arm the scheduler's
        watchdog; past it the query is unwound and ``.result()`` raises
        :class:`~repro.errors.QueryTimeoutError`.
        """
        sh = self.service.submit(
            query,
            tenant=tenant,
            name=name,
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
        if sh.rejection is not None:
            raise sh.rejection
        task = sh.task
        if task is None:
            # Queued: block until the service admits the statement,
            # pumping the in-flight workload meanwhile.  Unreachable
            # under the permissive default ServiceConfig.
            task = self.service._run_until_admitted(sh)
        return QueryHandle(self, task)

    def execute(
        self,
        sql: str,
        *,
        monitor: bool = False,
        keep_rows: bool = True,
        max_rows: Optional[int] = None,
    ) -> QueryResult:
        """Convenience: submit one query and drive it to completion."""
        return self.submit(
            sql, monitor=monitor, keep_rows=keep_rows, max_rows=max_rows
        ).result()

    def run(self) -> list[QueryHandle]:
        """Drive every in-flight query to a terminal state."""
        self.service.run()
        return [QueryHandle(self, t) for t in self.scheduler.tasks.values()]

    def step(self) -> Optional[QueryHandle]:
        """Grant exactly one scheduler slice (fine-grained driving)."""
        task = self.service.step()
        return None if task is None else QueryHandle(self, task)

    @property
    def handles(self) -> list[QueryHandle]:
        """Handles for every query submitted to this session, in order."""
        return [QueryHandle(self, t) for t in self.scheduler.tasks.values()]

    def __repr__(self) -> str:
        tasks = self.scheduler.tasks
        done = sum(1 for t in tasks.values() if t.done)
        return f"Session({len(tasks)} queries, {done} done)"
