"""The top-level database facade.

One :class:`Database` is a complete simulated RDBMS instance: virtual
clock, disk, buffer pool, catalog, optimizer and executor.  Experiments
build one, load tables, ANALYZE, and run queries — optionally with a
progress indicator attached, which is the monitored path the paper's
Section 5 evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - analysis/fault/obs imported lazily
    from repro.analysis.invariants import Violation
    from repro.api import Session
    from repro.fault.injector import FaultInjector
    from repro.fault.plan import FaultPlan
    from repro.obs.bus import SealedTrace, TraceBus
    from repro.service.service import QueryService

from repro.catalog.analyze import analyze_table
from repro.catalog.catalog import Catalog, Table
from repro.config import DEFAULT_QUANTUM_PAGES, ServiceConfig, SystemConfig
from repro.core.history import ProgressLog
from repro.core.indicator import ProgressIndicator
from repro.estimators.history import HistoryStore
from repro.executor.base import ExecContext
from repro.executor.runtime import QueryResult, run_query
from repro.planner.optimizer import Optimizer, PlannedQuery
from repro.sim.clock import VirtualClock
from repro.sim.load import LoadProfile
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.schema import Schema


@dataclass
class MonitoredResult:
    """Result of a query executed with a progress indicator attached.

    The bundle ``QueryHandle.monitored()`` returns.
    """

    result: QueryResult
    log: ProgressLog
    indicator: ProgressIndicator
    #: Sealed, read-only view of the recorded trace when tracing was on
    #: for this run, else None.
    trace: Optional["SealedTrace"] = None


class Database:
    """A simulated database instance on a virtual clock."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        load: Optional[LoadProfile] = None,
    ):
        self.config = config or SystemConfig()
        self.clock = VirtualClock(load)
        self.disk = SimulatedDisk(self.clock, self.config.cost)
        self.buffer_pool = BufferPool(
            self.disk, self.config.buffer_pool_pages, self.config.cost
        )
        self.catalog = Catalog(self.disk, self.config.page_size)
        #: Cross-query estimate-correction memory for the "history"
        #: estimator (and the ensemble's history candidate): finished
        #: monitored queries record estimated-vs-actual cardinalities
        #: per plan signature here.  Instance-scoped on purpose — two
        #: Database objects never share learned state, so rebuilding a
        #: database replays identically.  Survives :meth:`restart` (a
        #: buffer-pool cold start does not erase what the DBA learned).
        self.history_store = HistoryStore()

    # ------------------------------------------------------------------
    # schema & data

    def create_table(
        self, name: str, schema: Schema, rows: Optional[Iterable[Sequence]] = None
    ) -> Table:
        """Create a table; optionally bulk-load rows (no I/O charged)."""
        table = self.catalog.create_table(name, schema)
        if rows is not None:
            table.heap.bulk_load(rows)
        return table

    def create_index(self, table: str, column: str):
        """Build a B-tree index on one column of an existing table."""
        return self.catalog.create_index(table, column)

    def analyze(self, table: Optional[str] = None) -> None:
        """Run the statistics collector (Section 5.1 does this pre-test)."""
        buckets = self.config.planner.histogram_buckets
        if table is not None:
            analyze_table(self.catalog.get_table(table), buckets)
            return
        for t in self.catalog.tables():
            analyze_table(t, buckets)

    def restart(self) -> None:
        """Cold-start the buffer pool (the paper restarts before each test)."""
        self.buffer_pool.clear()

    def set_load(self, load: LoadProfile) -> None:
        """Install a run-time load profile (interference windows)."""
        self.clock.set_load(load)

    # ------------------------------------------------------------------
    # fault injection (the robustness layer)

    def install_faults(self, plan: "FaultPlan") -> "FaultInjector":
        """Arm deterministic fault injection on this instance's storage.

        The returned :class:`~repro.fault.FaultInjector` draws from
        ``random.Random(plan.seed)``, so the same plan over the same
        execution replays the identical fault schedule.  Installing a new
        plan replaces the previous injector (and resets its stream).
        """
        from repro.fault.injector import FaultInjector

        injector = FaultInjector(plan, self.clock)
        self.disk.set_faults(injector)
        self.buffer_pool.set_faults(injector)
        return injector

    def clear_faults(self) -> None:
        """Disarm fault injection; storage hooks return to the ~zero path."""
        self.disk.set_faults(None)
        self.buffer_pool.set_faults(None)

    @property
    def faults(self) -> "Optional[FaultInjector]":
        """The installed fault injector, if any."""
        return self.disk.faults

    # ------------------------------------------------------------------
    # sessions (the stable query API)

    def connect(
        self,
        policy: str = "round_robin",
        quantum_pages: int = DEFAULT_QUANTUM_PAGES,
    ) -> "Session":
        """Open a :class:`repro.api.Session` — the stable query surface.

        Queries submitted through one session run cooperatively
        interleaved (see :mod:`repro.sched`); ``policy`` and
        ``quantum_pages`` configure its scheduler.
        """
        from repro.api import Session

        return Session(self, policy=policy, quantum_pages=quantum_pages)

    def service(
        self,
        config: Optional["ServiceConfig"] = None,
        policy: str = "weighted_fair",
        quantum_pages: int = DEFAULT_QUANTUM_PAGES,
        trace: Union[None, bool, "TraceBus"] = None,
    ) -> "QueryService":
        """Open a :class:`repro.service.QueryService` — the multi-tenant
        front-end with admission control, load shedding and fair share.

        ``config`` defaults to this database's
        :attr:`SystemConfig.service` knobs (``with_service(...)``).
        """
        from repro.service.service import QueryService

        return QueryService(
            self,
            config=config,
            policy=policy,
            quantum_pages=quantum_pages,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # queries

    def prepare(self, sql: str) -> PlannedQuery:
        """Parse, bind and optimize one SELECT statement."""
        statement = parse_select(sql)
        bound = Binder(self.catalog).bind(statement)
        return Optimizer(self.config).plan(bound)

    def verify(self, sql: str) -> "list[Violation]":
        """Statically verify a statement's plan/segment invariants.

        Returns the list of :class:`repro.analysis.invariants.Violation`
        found (empty for a clean plan) without executing anything.
        """
        from repro.analysis.invariants import verify_plan

        _specs, violations = verify_plan(self.prepare(sql).root)
        return violations

    def _gate_unmonitored(self, planned: PlannedQuery, label: str) -> None:
        """Pre-execution invariant gate for the unmonitored fast path.

        The monitored path is always gated by the indicator (warn-only by
        default); the fast path skips segment building entirely, so it is
        only verified in strict mode (tests/debug, ``REPRO_VERIFY=strict``)
        where correctness checking outranks overhead.
        """
        from repro.analysis.gate import gate_segments, resolve_verify_mode
        from repro.core.segments import planned_segments

        if resolve_verify_mode(self.config) != "strict":
            return
        gate_segments(
            planned.root, planned_segments(planned), mode="strict", label=label
        )

    def explain(self, sql: str) -> str:
        """EXPLAIN: the annotated plan without executing it."""
        from repro.planner.explain import explain as render

        return render(self.prepare(sql).root)

    def explain_analyze(self, sql: str) -> str:
        """EXPLAIN ANALYZE: run the query and show actual vs estimated rows.

        The performance-tuning companion of the paper's Section 6: after a
        monitored run reveals a wrong cost estimate, this pinpoints which
        operator's cardinality estimate was off.
        """
        from repro.planner.explain import explain as render

        planned = self.prepare(sql)
        self._gate_unmonitored(planned, label=sql.strip())
        ctx = ExecContext(
            self.clock,
            self.disk,
            self.buffer_pool,
            self.config,
            tracker=None,
            count_rows=True,
        )
        result = run_query(planned, ctx, keep_rows=False)
        plan_text = render(planned.root, actual_rows=ctx.actual_rows)
        return (
            plan_text
            + f"\nExecution: {result.row_count} rows in "
            + f"{result.elapsed:.2f} simulated seconds"
        )
