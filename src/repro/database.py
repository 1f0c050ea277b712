"""The top-level database facade.

One :class:`Database` is a complete simulated RDBMS instance: virtual
clock, disk, buffer pool, catalog, optimizer and executor.  Experiments
build one, load tables, ANALYZE, and run queries — optionally with a
progress indicator attached, which is the monitored path the paper's
Section 5 evaluates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - analysis/fault/obs imported lazily
    from repro.analysis.invariants import Violation
    from repro.api import Session
    from repro.executor.fused import CacheInfo
    from repro.fault.injector import FaultInjector
    from repro.fault.plan import FaultPlan
    from repro.obs.bus import SealedTrace, TraceBus
    from repro.service.service import QueryService

from repro.analysis.gate import gate_plan, resolve_verify_mode
from repro.catalog.analyze import analyze_table
from repro.catalog.catalog import Catalog, Table
from repro.config import DEFAULT_QUANTUM_PAGES, ServiceConfig, SystemConfig
from repro.core.history import ProgressLog
from repro.core.indicator import ProgressIndicator
from repro.core.segments import planned_segments
from repro.errors import CatalogError, PlanError
from repro.estimators.history import HistoryStore
from repro.executor.base import ExecContext
from repro.executor.runtime import QueryResult, run_query
from repro.planner.optimizer import Optimizer, PlannedQuery, plan_values
from repro.sim.clock import VirtualClock
from repro.sim.load import LoadProfile
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.schema import Schema

#: Statements one database keeps planned, least recently used out first.
#: A bound on memory, not a knob: a point-lookup plan with its segments
#: and read set retains ~5 KiB, so a full cache ~5 MiB.
STATEMENT_CACHE_SIZE = 1024


def _table_state(name: str, table: Table) -> tuple:
    """What a plan read of a table: the object the catalog maps ``name``
    to, its size, its statistics object and its indexes."""
    heap = table.heap
    return (
        name,
        table,
        heap.num_tuples,
        heap.num_pages,
        heap.total_bytes,
        table.statistics,
        _index_state(table),
    )


def _index_state(table: Table) -> tuple:
    """Each index with the entry count and fanout a scan is costed from."""
    return tuple([
        (column, index, index.num_entries, index.fanout)
        for column, index in table.indexes.items()
    ])


def _unchanged(catalog: Catalog, reads: tuple) -> bool:
    """Whether every table of a read set is still what the plan read."""
    for name, table, tuples, pages, nbytes, statistics, indexes in reads:
        heap = table.heap
        if (
            heap.num_tuples != tuples
            or heap.num_pages != pages
            or heap.total_bytes != nbytes
            # By identity: a new ANALYZE re-plans even if its values equal.
            or table.statistics is not statistics
            or ((indexes or table.indexes) and _index_state(table) != indexes)
        ):
            return False
        try:
            if catalog.get_table(name) is not table:
                return False
        except CatalogError:
            return False
    return True


class DatabaseCacheInfo(NamedTuple):
    """:meth:`Database.cache_info`: ``functools``-style counters per cache."""

    #: This database's statement cache: plans reused, plans made, bound, size.
    statements: "CacheInfo"
    #: The process-wide fused program cache (``fused.code_cache_info()``).
    programs: "CacheInfo"


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
        #: sql -> (plan, the config it was planned with, read set); see
        #: :meth:`prepare`.
        self._statements: OrderedDict[
            str, tuple[PlannedQuery, SystemConfig, tuple]
        ] = OrderedDict()
        self._statement_counts = [0, 0]  # hits, misses

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
        """Parse, bind and optimize one SELECT statement — once per text.

        The plan is kept under the exact text, for the config it was
        planned with, with its read set: each table the binder resolved
        and the facts the optimizer read of it (:func:`_table_state`).
        Preparing the same text again returns the same plan while the
        config is equal and every one of those facts still holds —
        ``analyze()``, DDL, DML and direct loads all change one, so there
        is no invalidation call to forget — and plans afresh when one
        does not.  Only statements that plan are kept; the least recently
        used of :data:`STATEMENT_CACHE_SIZE` goes first.  Under
        ``REPRO_VERIFY=strict`` a hit is also planned afresh and must
        equal the cached plan in every value (:func:`plan_values`).
        """
        statements = self._statements
        entry = statements.get(sql)
        config = self.config
        if (
            entry is not None
            and (entry[1] is config or entry[1] == config)
            and _unchanged(self.catalog, entry[2])
        ):
            self._statement_counts[0] += 1
            statements.move_to_end(sql)
            if resolve_verify_mode(config) == "strict":
                self._recheck(sql, entry[0])
            return entry[0]
        self._statement_counts[1] += 1
        planned, reads = self._plan(sql)
        statements[sql] = (planned, config, reads)
        statements.move_to_end(sql)
        if len(statements) > STATEMENT_CACHE_SIZE:
            statements.popitem(last=False)
        return planned

    def _plan(self, sql: str) -> tuple[PlannedQuery, tuple]:
        """Parse, bind and optimize ``sql``; the plan and its read set."""
        binder = Binder(self.catalog)
        bound = binder.bind(parse_select(sql))
        planned = Optimizer(self.config).plan(bound)
        # Segmented now, so the annotations a shared plan carries are the
        # same for every use (admission segments every submission anyway).
        planned_segments(planned)
        return planned, tuple(
            _table_state(name, table) for name, table in binder.tables_read.items()
        )

    def _recheck(self, sql: str, cached: PlannedQuery) -> None:
        fresh, _reads = self._plan(sql)
        if plan_values(fresh) != plan_values(cached):
            raise PlanError(
                f"statement cache: the plan cached for {sql.strip()!r} differs "
                "from a fresh plan of it (was a prepared plan edited?)"
            )

    def cache_info(self) -> DatabaseCacheInfo:
        """Counters of this database's statement cache and of the
        process-wide fused program cache it feeds."""
        from repro.executor.fused import CacheInfo, code_cache_info

        hits, misses = self._statement_counts
        statements = CacheInfo(
            hits, misses, STATEMENT_CACHE_SIZE, len(self._statements)
        )
        return DatabaseCacheInfo(statements=statements, programs=code_cache_info())

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
        default); the fast path is only verified in strict mode
        (tests/debug, ``REPRO_VERIFY=strict``) where correctness checking
        outranks overhead.
        """
        if resolve_verify_mode(self.config) == "strict":
            gate_plan(planned, mode="strict", label=label)

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
