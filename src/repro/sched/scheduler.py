"""The cooperative multi-query scheduler.

Interleaves N in-flight queries on one :class:`~repro.database.Database`
— one shared virtual clock, buffer pool and disk — by resuming each
query's executor coroutine for a bounded *slice* of work, then suspending
it at the next PULSE marker (see :mod:`repro.executor.base`).

A slice's budget is the **quantum**, measured in pages of U: a monitored
task is suspended once its own work tracker advanced ``quantum_pages``
since the slice began; unmonitored tasks fall back to counting pulses
(one pulse ≈ one page-equivalent of work).  Which task runs next is the
:mod:`policy's <repro.sched.policy>` call; everything is deterministic,
so the same submissions under the same policy replay the identical
interleaving.

This is where the paper's Section 4.6 "system load" stops being a
synthetic :class:`~repro.sim.load.InterferenceWindow` and becomes real
contention: while query A holds a slice, the shared clock advances, so
query B's speed samples observe stalled work — its indicator reports a
speed dip *because A ran*, not because anyone scripted one.  Likewise
the buffer pool: A's reads evict B's pages, so B pays misses it would
not pay alone.

Per-slice bookkeeping routes shared-resource observability to the right
query: the active task's TraceBus is installed on the disk and buffer
pool (so PageRead/BufferAccess events land in *its* stream), and the
disk's I/O owner label is set to the task name (per-owner counters).

Robustness (the :mod:`repro.fault` layer's contract) lives here too:

* **Containment** — an ``Exception`` escaping one task's executor (e.g.
  an injected :class:`~repro.errors.TransientIOError` whose retry budget
  ran out) fails *that task only*: its state becomes FAILED, its
  coroutine is closed so operator ``finally`` blocks release pins and
  temp files, its indicator is aborted, and the scheduler keeps slicing
  the other queries.  ``KeyboardInterrupt``/``SystemExit`` still
  propagate after the same unwind.
* **Watchdog** — ``submit(timeout=...)`` (relative, from first slice) or
  ``submit(deadline=...)`` (absolute virtual time) arms a per-task
  deadline; the task is moved to TIMED_OUT either mid-slice at the next
  PULSE or, while suspended, by the deadline sweep in :meth:`step`.

Every task therefore ends in exactly one terminal state: FINISHED,
FAILED, CANCELLED, TIMED_OUT or SHED (the service's load-shedding
policy evicted it — see :mod:`repro.service`).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.config import DEFAULT_QUANTUM_PAGES
from repro.core.indicator import ProgressIndicator
from repro.database import Database
from repro.errors import ProgressError, QueryShedError, QueryTimeoutError
from repro.executor.base import PULSE, ExecContext
from repro.executor.batch import Batch
from repro.executor.runtime import QueryResult, execute
from repro.obs import resolve_trace
from repro.obs.bus import TraceBus
from repro.planner.optimizer import PlannedQuery
from repro.sched.policy import SchedulingPolicy, make_policy
from repro.sched.task import (
    CANCELLED,
    FAILED,
    FINISHED,
    RUNNING,
    SHED,
    SUSPENDED,
    TIMED_OUT,
    QueryTask,
    SliceRecord,
    next_task_name,
)


class CooperativeScheduler:
    """Slices many in-flight queries over one shared Database."""

    def __init__(
        self,
        db: Database,
        policy: Union[str, SchedulingPolicy] = "round_robin",
        quantum_pages: int = DEFAULT_QUANTUM_PAGES,
    ) -> None:
        if quantum_pages <= 0:
            raise ProgressError("quantum_pages must be positive")
        self.db = db
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.quantum_pages = quantum_pages
        self.tasks: dict[str, QueryTask] = {}
        #: Non-terminal tasks only, in submission order.  The watchdog
        #: sweep and the runnable scan iterate this instead of ``tasks``,
        #: so a step costs O(in-flight), not O(everything ever submitted)
        #: — the difference between thousands of drained queries being
        #: free and each one taxing every later slice.
        self._active: dict[str, QueryTask] = {}
        #: Every slice granted, in order — the interleaving log the
        #: determinism tests compare across runs.
        self.slices: list[SliceRecord] = []
        #: Called exactly once per task, at its terminal transition —
        #: however the task got there (finish, fail, cancel, timeout,
        #: shed).  The service layer hooks this to settle per-tenant
        #: in-flight cost without rescanning the task table.
        self.on_retire: Optional[Callable[[QueryTask], None]] = None
        self._page_size = db.config.page_size
        self._seq = 0

    # ------------------------------------------------------------------
    # submission

    def submit(
        self,
        query: Union[str, PlannedQuery],
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
    ) -> QueryTask:
        """Register a query as an in-flight task (no work happens yet).

        ``query`` is SQL text or an already-prepared plan.  ``monitor``
        attaches a per-task :class:`ProgressIndicator` (``on_report``,
        if given, observes each of its periodic reports; ``estimator``
        picks the registered estimation strategy for this query,
        defaulting to ``ProgressConfig.estimator``).  ``trace`` is a
        :class:`TraceBus` to record into, ``True`` to create one, or
        ``None`` to follow the config/env default (``REPRO_TRACE``).

        ``timeout`` is a statement timeout in virtual seconds, measured
        from the task's first slice; ``deadline`` is an absolute
        virtual-clock instant.  Either arms the watchdog: past it, the
        task is unwound to the TIMED_OUT state and
        :class:`~repro.errors.QueryTimeoutError` is raised by
        ``result()``.
        """
        if timeout is not None and timeout <= 0:
            raise ProgressError("timeout must be positive")
        if isinstance(query, PlannedQuery):
            planned, sql = query, "<planned>"
        else:
            sql = query
            planned = self.db.prepare(sql)
        if name is None:
            name = next_task_name(self.tasks)
        if name in self.tasks:
            raise ProgressError(f"task {name!r} already submitted")

        bus = resolve_trace(trace)
        indicator: Optional[ProgressIndicator] = None
        if monitor:
            indicator = ProgressIndicator(
                planned, self.db.clock, self.db.config,
                on_report=on_report, trace=bus, label=name,
                estimator=estimator, history=self.db.history_store,
            )
        else:
            self.db._gate_unmonitored(planned, label=name)
        ctx = ExecContext(
            self.db.clock,
            self.db.disk,
            self.db.buffer_pool,
            self.db.config,
            tracker=None if indicator is None else indicator.tracker,
        )
        task = QueryTask(
            name=name,
            sql=sql,
            planned=planned,
            gen=execute(planned, ctx),
            priority=priority,
            indicator=indicator,
            trace=bus,
            keep_rows=keep_rows,
            max_rows=max_rows,
            seq=len(self.tasks),
            timeout=timeout,
            deadline=deadline,
        )
        self.tasks[name] = task
        self._active[name] = task
        return task

    # ------------------------------------------------------------------
    # driving

    @property
    def runnable(self) -> list[QueryTask]:
        """Tasks that can receive a slice, in submission order."""
        return [t for t in self._active.values() if t.runnable]

    def step(self) -> Optional[QueryTask]:
        """Grant one slice to the policy's pick; None if nothing runnable.

        Before picking, the watchdog sweep times out any suspended task
        whose deadline the shared clock has already passed (time spent in
        *other* queries' slices counts against a statement timeout —
        that is what makes it a wall-clock deadline, not a CPU budget).
        """
        self._expire_deadlines()
        runnable = self.runnable
        if not runnable:
            return None
        task = self.policy.choose(runnable)
        self._run_slice(task)
        return task

    def _expire_deadlines(self) -> None:
        now = self.db.clock.now
        # Snapshot: _timeout() retires tasks from the active index.
        for task in list(self._active.values()):
            if (
                task.deadline is not None
                and not task.done
                and task.state != RUNNING
                and now >= task.deadline
            ):
                self._timeout(task)

    def run(self) -> list[QueryTask]:
        """Slice until every task reached a terminal state."""
        while self.step() is not None:
            pass
        return list(self.tasks.values())

    def suspend(self, task: Union[str, QueryTask]) -> QueryTask:
        """Block a task from receiving slices (DBA load management, §6).

        The task keeps all mid-query state — pins, runs, indicator — and
        the shared clock keeps moving while others run, so its indicator
        honestly reports the blocked time.  :meth:`resume` lifts the block.
        """
        task = self._lookup(task)
        task.blocked = True
        return task

    def resume(self, task: Union[str, QueryTask]) -> QueryTask:
        """Lift a :meth:`suspend` block; the task is schedulable again."""
        task = self._lookup(task)
        task.blocked = False
        return task

    def _lookup(self, task: Union[str, QueryTask]) -> QueryTask:
        if isinstance(task, str):
            try:
                return self.tasks[task]
            except KeyError:
                raise ProgressError(f"unknown task {task!r}") from None
        return task

    def cancel(self, task: Union[str, QueryTask]) -> QueryTask:
        """Cancel an in-flight task.

        Closing the suspended coroutine unwinds the operator tree's
        ``finally`` blocks mid-segment — buffer pins are released, temp
        files dropped — and the indicator is aborted: its last report
        keeps ``finished=False`` and the trace records ``QueryCancelled``.
        """
        task = self._lookup(task)
        if task.done:
            return task
        if task.state == RUNNING:  # pragma: no cover - single-threaded guard
            raise ProgressError(f"task {task.name!r} is mid-slice")
        self._terminate(task, CANCELLED, abort_reason="cancelled")
        return task

    def shed(
        self, task: Union[str, QueryTask], reason: str = "deadline"
    ) -> QueryTask:
        """Evict an in-flight task (service load-shedding, paper §6).

        Same cooperative unwind as :meth:`cancel` — pins release, temp
        files drop, the indicator's last report keeps ``finished=False``
        — but the terminal state, stored error and trace event all say
        *shed*: the system gave up on this query to protect the rest of
        the workload, the user didn't.  Idempotent on terminal tasks.
        """
        task = self._lookup(task)
        if task.done:
            return task
        if task.state == RUNNING:  # pragma: no cover - single-threaded guard
            raise ProgressError(f"task {task.name!r} is mid-slice")
        elapsed = (
            0.0
            if task.started_at is None
            else self.db.clock.now - task.started_at
        )
        error = QueryShedError(
            f"query {task.name!r} was shed by the load-shedding policy "
            f"({reason}; elapsed {elapsed:.3f}s)"
        )
        self._terminate(task, SHED, abort_reason="shed", error=error)
        return task

    # ------------------------------------------------------------------
    # slice mechanics

    def _run_slice(self, task: QueryTask) -> None:
        clock = self.db.clock
        disk = self.db.disk
        pool = self.db.buffer_pool
        started = clock.now
        if task.started_at is None:
            task.started_at = started
            if task.timeout is not None and task.deadline is None:
                task.deadline = started + task.timeout
            start_pages = 0.0  # nothing has run: every counter is zero
        else:
            start_pages = self._done_pages(task)  # parked: no fold
            if task.indicator is not None:
                task.indicator.tracker.resume()
        pulses = 0
        reason = "quantum"
        keep = task.keep_rows
        cap = task.max_rows
        rows = task.rows  # never rebound; hoisted out of the hot loop

        task.state = RUNNING
        prev_owner = disk.set_owner(task.name)
        prev_traces = None
        if task.trace_bus is not None:
            prev_traces = (
                disk.set_trace(task.trace_bus),
                pool.set_trace(task.trace_bus),
            )
        try:
            while True:
                try:
                    item = next(task.gen)
                except StopIteration:
                    reason = "finished"
                    self._finish(task)
                    break
                if item is PULSE:
                    pulses += 1
                    if task.deadline is not None and clock.now >= task.deadline:
                        reason = "timeout"
                        self._timeout(task)
                        break
                    if self._quantum_spent(task, start_pages, pulses):
                        task.state = SUSPENDED
                        break
                elif type(item) is Batch:
                    brows = item.rows()
                    task.row_count += len(brows)
                    if keep:
                        if cap is None:
                            rows.extend(brows)
                        elif len(rows) < cap:
                            rows.extend(brows[: cap - len(rows)])
                else:
                    task.row_count += 1
                    if keep and (cap is None or len(rows) < cap):
                        rows.append(item)
        except Exception as exc:  # containment boundary:
            # one query's failure (e.g. an injected I/O fault past its
            # retry budget) must not take down its siblings; the error is
            # stored and re-raised by QueryHandle.result().
            reason = "failed"
            self._fail(task, exc)
        except BaseException as exc:
            # Non-Exception escapes (KeyboardInterrupt, SystemExit) still
            # unwind the task cleanly, then propagate to the caller.
            reason = "failed"
            self._fail(task, exc)
            raise
        finally:
            disk.set_owner(prev_owner)
            if prev_traces is not None:
                disk.set_trace(prev_traces[0])
                pool.set_trace(prev_traces[1])
            record = SliceRecord(
                seq=self._seq,
                task=task.name,
                started_at=started,
                ended_at=clock.now,
                pulses=pulses,
                pages=self._done_pages(task) - start_pages,
                reason=reason,
            )
            if task.indicator is not None and not task.done:  # that read folded
                task.indicator.tracker.park()
            task.last_sliced = self._seq
            self._seq += 1
            task.slices.append(record)
            self.slices.append(record)
            # Fair-share accounting: charge the slice's U to the task
            # (and its tenant, when the service attached one).  Pulses
            # stand in for pages on unmonitored tasks, mirroring the
            # quantum rule above.
            used = record.pages if record.pages > 0 else float(pulses)
            task.charged_pages += used
            ref = task.tenant_ref
            if ref is not None:
                ref.consumed_pages += used

    def _terminate(
        self,
        task: QueryTask,
        state: str,
        abort_reason: str,
        error: Optional[BaseException] = None,
    ) -> None:
        """Move a task to an abnormal terminal state, unwinding exactly once.

        The state flips *before* the coroutine is closed, so re-entrant
        termination attempts (a watchdog sweep and a service eviction
        targeting the same task in one step, or a user ``cancel()`` after
        either) observe ``task.done`` and back off.  The indicator abort
        runs in a ``finally`` — even an operator ``finally`` block that
        raises mid-close cannot leave a zombie task with a live ticker —
        and is itself guarded so an already-finalized indicator is never
        aborted twice.
        """
        task.state = state
        task.error = error
        task.finished_at = self.db.clock.now
        self._active.pop(task.name, None)
        try:
            task.gen.close()
        finally:
            if task.indicator is not None and not task.indicator.finalized:
                task.log = task.indicator.abort(
                    reason=abort_reason, error=error
                )
            if self.on_retire is not None:
                self.on_retire(task)

    def _fail(self, task: QueryTask, error: Optional[BaseException]) -> None:
        """Move a task to FAILED: unwind the coroutine (operator
        ``finally`` blocks release pins and drop temp files), store the
        error for ``result()``, abort the indicator."""
        self._terminate(task, FAILED, abort_reason="failed", error=error)

    def _timeout(self, task: QueryTask) -> None:
        """Move a task to TIMED_OUT: same unwind as cancellation, but the
        terminal state, stored error and trace event all say timeout."""
        elapsed = (
            0.0
            if task.started_at is None
            else self.db.clock.now - task.started_at
        )
        error = QueryTimeoutError(
            f"query {task.name!r} exceeded its deadline "
            f"(elapsed {elapsed:.3f}s)"
        )
        self._terminate(task, TIMED_OUT, abort_reason="timeout", error=error)

    def _finish(self, task: QueryTask) -> None:
        clock = self.db.clock
        task.state = FINISHED
        task.finished_at = clock.now
        self._active.pop(task.name, None)
        assert task.started_at is not None
        task.result = QueryResult(
            rows=task.rows,
            names=task.planned.output_names,
            elapsed=task.finished_at - task.started_at,
            started_at=task.started_at,
            finished_at=task.finished_at,
            row_count=task.row_count,
        )
        if task.indicator is not None:
            task.log = task.indicator.finalize()
        if self.on_retire is not None:
            self.on_retire(task)

    def _done_pages(self, task: QueryTask) -> float:
        if task.indicator is None:
            return 0.0
        return task.indicator.tracker.done_pages(self._page_size)

    def _quantum_spent(self, task: QueryTask, start_pages: float, pulses: int) -> bool:
        # Unmonitored rule (and a backstop for monitored phases whose
        # pulses outpace tracked bytes): one pulse ≈ one page of work.
        # Tested first, it spares a monitored task the tracker read.
        if pulses >= self.quantum_pages:
            return True
        return (
            task.indicator is not None
            and self._done_pages(task) - start_pages >= self.quantum_pages
        )
