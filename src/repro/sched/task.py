"""Per-query task state for the cooperative scheduler.

A :class:`QueryTask` is one in-flight query: its plan, its (optional)
progress indicator and trace stream, the suspended executor coroutine,
and the history of scheduler slices it has received.  All timestamps are
virtual-clock instants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Iterator, Optional

from repro.core.history import ProgressLog
from repro.core.indicator import ProgressIndicator
from repro.core.report import ProgressReport
from repro.executor.runtime import QueryResult
from repro.obs.bus import SealedTrace, TraceBus
from repro.planner.optimizer import PlannedQuery

#: Task lifecycle states.
PENDING = "pending"       #: submitted, never sliced yet
RUNNING = "running"       #: currently holding the (single) execution slice
SUSPENDED = "suspended"   #: mid-query, waiting for its next slice
FINISHED = "finished"     #: ran to completion
CANCELLED = "cancelled"   #: cancelled before completion
FAILED = "failed"         #: raised out of the executor
TIMED_OUT = "timed_out"   #: exceeded its statement timeout / deadline
SHED = "shed"             #: evicted by the service's load-shedding policy

#: States from which a task can still receive slices.
RUNNABLE_STATES = frozenset({PENDING, SUSPENDED})
#: Terminal states — every task ends in exactly one of these.
DONE_STATES = frozenset({FINISHED, CANCELLED, FAILED, TIMED_OUT, SHED})


def next_task_name(taken: Collection[str]) -> str:
    """Default name for the next submission: ``q<len + 1>``, or the next
    ``q<n>`` after it that an explicit ``name=`` has not already used."""
    n = len(taken) + 1
    while f"q{n}" in taken:
        n += 1
    return f"q{n}"


@dataclass(frozen=True)
class SliceRecord:
    """One scheduler slice granted to one task (the interleaving log)."""

    #: Global slice sequence number (0-based, scheduler-wide).
    seq: int
    task: str
    started_at: float
    ended_at: float
    #: PULSE markers consumed during the slice.
    pulses: int
    #: Work progress in U (pages) the task's tracker advanced during the
    #: slice; 0.0 for unmonitored tasks.
    pages: float
    #: Why the slice ended: "quantum", "finished", "failed", "timeout".
    reason: str


class QueryTask:
    """One in-flight query owned by a :class:`~repro.sched.CooperativeScheduler`."""

    def __init__(
        self,
        name: str,
        sql: str,
        planned: PlannedQuery,
        gen: Iterator[tuple],
        priority: int = 0,
        indicator: Optional[ProgressIndicator] = None,
        trace: Optional[TraceBus] = None,
        keep_rows: bool = True,
        max_rows: Optional[int] = None,
        seq: int = 0,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.name = name
        self.sql = sql
        self.planned = planned
        self.gen = gen
        self.priority = priority
        self.indicator = indicator
        self.trace_bus = trace
        self.keep_rows = keep_rows
        self.max_rows = max_rows
        #: Submission order; ties in scheduling policies break on this.
        self.seq = seq
        #: Statement timeout in virtual seconds, measured from the task's
        #: first slice; converted to an absolute deadline when it starts.
        self.timeout = timeout
        #: Absolute virtual-clock deadline; the scheduler's watchdog moves
        #: the task to TIMED_OUT once the clock passes it.
        self.deadline = deadline

        self.state = PENDING
        #: DBA load-management block (paper §6): a blocked task keeps its
        #: state but receives no slices until resumed.
        self.blocked = False
        #: Fair-share accounting: tenant name and the tenant registry
        #: entry (an object with ``weight`` and ``consumed_pages``; see
        #: :mod:`repro.service.tenant`).  ``None`` outside the service.
        self.tenant: str = "default"
        self.tenant_ref: Optional[Any] = None
        #: U (pages; pulse-equivalents when unmonitored) charged to this
        #: task across all its slices — the scheduler maintains it so
        #: fair-share policies never rescan the slice log.
        self.charged_pages: float = 0.0
        #: Shedding-policy demotions: each halves the task's effective
        #: fair-share weight (graded deprioritization before eviction).
        self.demotions = 0
        self.rows: list[tuple] = []
        self.row_count = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.slices: list[SliceRecord] = []
        #: Global slice seq of this task's most recent slice (-1 = never);
        #: round-robin picks the least recently run task.
        self.last_sliced = -1
        self.log: Optional[ProgressLog] = None
        self.error: Optional[BaseException] = None
        self.result: Optional[QueryResult] = None
        self._sealed: Optional[SealedTrace] = None

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state in DONE_STATES

    @property
    def runnable(self) -> bool:
        return self.state in RUNNABLE_STATES and not self.blocked

    def progress(self) -> Optional[ProgressReport]:
        """The indicator's current report (None for unmonitored tasks)."""
        if self.indicator is None:
            return None
        return self.indicator.report()

    def sealed_trace(self) -> Optional[SealedTrace]:
        """Read-only view of this task's trace stream, if traced.

        While the task is in flight the seal is a snapshot; once the task
        is done the sealed view is cached and stable.
        """
        if self.trace_bus is None:
            return None
        if self.done:
            if self._sealed is None:
                self._sealed = self.trace_bus.seal()
            return self._sealed
        return self.trace_bus.seal()

    def __repr__(self) -> str:
        return (
            f"QueryTask({self.name!r}, state={self.state}, "
            f"slices={len(self.slices)}, rows={self.row_count})"
        )
