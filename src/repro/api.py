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
(:mod:`repro.sched`).  A :class:`QueryHandle` (the service's handle,
:mod:`repro.service`) offers three return shapes: the plain
:class:`~repro.executor.runtime.QueryResult` (``.result()``), the
:class:`~repro.database.MonitoredResult` bundle (``.monitored()``), and
the trace stream (``.trace()``, sealed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.config import DEFAULT_QUANTUM_PAGES
from repro.executor.runtime import QueryResult
from repro.planner.optimizer import PlannedQuery
from repro.service.service import QueryHandle, QueryService

if TYPE_CHECKING:  # pragma: no cover - circular at import time only
    from repro.database import Database

__all__ = ["QueryHandle", "Session"]


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
        self.db = db
        self.service = QueryService(
            db, policy=policy, quantum_pages=quantum_pages
        )
        self.scheduler = self.service.scheduler

    # ------------------------------------------------------------------

    def submit(self, query: Union[str, PlannedQuery], **options) -> QueryHandle:
        """Submit a query (SQL text or a prepared plan) for execution.

        ``options`` are those of :meth:`QueryService.submit`.  Returns
        once the service admitted the statement; no work happens until
        the session is driven — by this or any other handle's
        ``.result()``, or by :meth:`run`.
        """
        handle = self.service.submit(query, **options)
        if handle.rejection is not None:
            raise handle.rejection
        # Queued: block until admitted, pumping the in-flight workload
        # meanwhile.  A no-op under the permissive default ServiceConfig.
        self.service._pump(handle, until_done=False)
        return handle

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
        return self.service.run()

    def step(self) -> Optional[QueryHandle]:
        """Grant exactly one scheduler slice (fine-grained driving)."""
        task = self.service.step()
        return None if task is None else self.service._handles[task.name]

    @property
    def handles(self) -> list[QueryHandle]:
        """Handles for every query submitted to this session, in order
        (a rejected submission's too, with state ``"rejected"``)."""
        return self.service.handles

    def __repr__(self) -> str:
        handles = self.service.handles
        done = sum(1 for h in handles if h.done)
        return f"Session({len(handles)} queries, {done} done)"
