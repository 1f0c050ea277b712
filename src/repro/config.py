"""System-wide configuration for the repro engine.

A :class:`SystemConfig` bundles every knob that influences storage layout,
optimizer behaviour, executor resource limits, and the simulated cost model.
It plays the role of ``postgresql.conf`` for this engine: experiments build
one config object and thread it through :class:`repro.database.Database`.

All costs are expressed in simulated seconds.  The defaults are calibrated
so that the scaled TPC-R workload of the paper's Section 5 produces queries
running for hundreds of simulated seconds, matching the time axes of the
paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ProgressError

#: Size of one storage page in bytes.  One page of bytes is also one unit of
#: work "U" for the progress indicator (paper Section 4.1).
DEFAULT_PAGE_SIZE = 8192

#: PostgreSQL's default selectivity for predicates it cannot estimate, such
#: as ``absolute(l.partkey) > 0``.  The paper's Figures 9, 13, 17 and 18 all
#: hinge on this default being wrong (Section 5.3.1, point 3).
DEFAULT_UNKNOWN_SELECTIVITY = 1.0 / 3.0

#: Default scheduler slice budget, in pages of U per slice
#: (:mod:`repro.sched`).
DEFAULT_QUANTUM_PAGES = 4


@dataclass(frozen=True)
class CostModelConfig:
    """Calibration constants of the simulated execution cost model.

    The virtual clock charges these amounts of simulated time for each
    primitive action.  The ratios matter more than the absolute values:
    sequential I/O must be cheaper than random I/O, and per-tuple CPU work
    must be small relative to a page I/O for I/O-bound queries yet dominate
    for in-memory nested-loops joins (query Q5 in the paper).
    """

    #: Seconds to read one page sequentially from the simulated disk.
    #: Calibrated so the scale-0.01 TPC-R workload reproduces the paper's
    #: time axes (e.g. Q1, a 557-page lineitem scan, runs ~95 virtual
    #: seconds as in Figure 4).  Virtual seconds are free, so the absolute
    #: values only anchor the figures' scales.
    seq_page_read: float = 0.16
    #: Seconds to read one page at a random location.
    random_page_read: float = 0.80
    #: Seconds to write one page (spill partitions, sort runs).
    page_write: float = 0.22
    #: CPU seconds to pass one tuple through one operator.
    cpu_tuple: float = 0.0001
    #: CPU seconds to evaluate one predicate/expression on one tuple.
    cpu_operator: float = 0.0004
    #: CPU seconds to hash one tuple (hash joins, partitioning).
    cpu_hash: float = 0.0002
    #: CPU seconds per comparison (sorts, merge joins).
    cpu_compare: float = 0.0002
    #: CPU seconds charged per index-level traversed during an index probe.
    cpu_index_level: float = 0.001


@dataclass(frozen=True)
class PlannerConfig:
    """Optimizer knobs, mirroring PostgreSQL's ``enable_*`` flags."""

    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_nestloop: bool = True
    enable_indexscan: bool = True
    #: Selectivity assigned to predicates with no usable statistics.
    default_selectivity: float = DEFAULT_UNKNOWN_SELECTIVITY
    #: Number of buckets built by ANALYZE's equi-depth histograms.
    histogram_buckets: int = 20
    #: Assumed I/O seconds per page used to convert optimizer I/O counts
    #: into the "optimizer's estimate of query running time" baseline
    #: (the dotted line in the paper's Figures 6, 11 and 15).  The paper
    #: notes this is "a little bit different from the monitored query
    #: execution speed"; we keep a deliberate mild miscalibration.
    #: (True sequential reads cost 0.16 s/page in the simulated cost model;
    #: the optimizer's assumption is deliberately a bit off, as in Fig. 6.)
    assumed_seconds_per_io: float = 0.20


@dataclass(frozen=True)
class ProgressConfig:
    """Progress-indicator knobs (paper Sections 3, 4.6)."""

    #: Seconds between user-visible progress reports ("acceptable pacing").
    update_interval: float = 10.0
    #: Length T of the sliding window used to estimate current speed.
    speed_window: float = 10.0
    #: Simulated seconds of processing the indicator "watches" before it is
    #: willing to produce its first remaining-time estimate (Section 4.1).
    warmup: float = 2.0
    #: Which speed estimator to use: "window" (the paper's), "decay"
    #: (the exponentially-decaying average suggested as future work in
    #: Section 4.6), or "global" (whole-history mean; ablation baseline).
    speed_estimator: str = "window"
    #: Which registered progress estimator runs each query: "paper" (the
    #: default §4.5 blend), "dne", "tgn", "history", any name added via
    #: :func:`repro.estimators.register_estimator`, or "ensemble" (race
    #: every registered candidate and let the online selector pick).
    #: ``Session.submit(estimator=...)`` overrides per query.
    estimator: str = "paper"
    #: How scans report bytes to the tracker: "tuple" (as each tuple is
    #: processed — the paper's semantics, required for smooth progress on
    #: CPU-bound consumers like Q5) or "page" (whole pages at read time;
    #: ablation knob showing why tuple granularity matters).
    scan_granularity: str = "tuple"
    #: Pre-execution plan/segment invariant gate (repro.analysis.gate):
    #: "off", "warn" (default: verify and warn on violations), or
    #: "strict" (raise before executing).  The REPRO_VERIFY environment
    #: variable overrides this; tests/CI run strict.
    verify_mode: str = "warn"
    #: Which executor engine runs queries: "batch" (default — the fused
    #: batch-at-a-time engine: each query plan is compiled into tight
    #: per-pipeline loops that move :class:`repro.executor.batch.Batch`
    #: objects to the driver) or "row" (the reference volcano engine,
    #: one tuple per generator hop).  Both engines charge the identical
    #: sequence of virtual-clock costs and tracker updates, so results,
    #: ProgressLog and U totals are bit-identical; "batch" only changes
    #: real (wall-clock) time.  EXPLAIN ANALYZE, which counts rows per
    #: operator, always uses the row engine regardless of this knob.
    engine: str = "batch"
    #: Rows per :class:`~repro.executor.batch.Batch` handed to the driver
    #: by the batch engine.  Batches also flush at every PULSE boundary
    #: (flushing is clock-silent), so any value produces bit-identical
    #: results; 1 degenerates to row-at-a-time transport.
    batch_rows: int = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Multi-tenant service knobs (:mod:`repro.service`, paper §6 automated).

    The defaults are deliberately **permissive** — no saturation limit,
    no tenant budgets, shedding off — so a plain
    :class:`~repro.api.Session` (which routes every submission through a
    service front-end for admission accounting) behaves exactly like the
    raw scheduler.  Production-shaped deployments tighten the knobs::

        cfg = SystemConfig().with_service(
            max_inflight=32, shedding=True,
            tenant_cost_budget_pages=5_000.0,
        )
    """

    #: Maximum concurrently admitted (in-flight) queries; past it new
    #: submissions wait in the admission queue.  ``None`` = unbounded.
    max_inflight: Optional[int] = None
    #: Bounded admission-queue capacity; a submission arriving with this
    #: many already waiting gets the explicit ``ADMISSION_REJECTED``
    #: outcome (no task is ever created for it).
    admission_queue_limit: int = 10_000
    #: Default per-tenant budget for the summed *predicted* cost (U
    #: pages) of its concurrently admitted queries; a submission pushing
    #: the tenant past it queues until the tenant's own queries drain
    #: (the queued ``admission_decided`` reason names the budget).
    #: ``None`` = unlimited.  Per-tenant
    #: overrides via :meth:`repro.service.QueryService.register_tenant`.
    tenant_cost_budget_pages: Optional[float] = None
    #: Whether the load-shedding policy loop acts on deadline-bearing
    #: queries (deprioritize, then evict).  Off, the watchdog alone
    #: enforces deadlines — queries die *at* the deadline instead of
    #: being evicted early once predicted to miss it.
    shedding: bool = False
    #: Consecutive flagged policy checks before the query is demoted
    #: (its effective fair-share weight halves per demotion).
    deprioritize_after: int = 1
    #: Consecutive flagged policy checks before the query is evicted
    #: (terminal ``shed`` state, ``query_shed`` trace event).
    shed_after: int = 3
    #: Minimum virtual seconds between shedding evaluations of one query
    #: — the policy samples at slice boundaries, this rate-limits it.
    policy_interval: float = 5.0

    def __post_init__(self) -> None:
        # Each of these would wedge or gut the service: nothing ever
        # admits at max_inflight=0, every deadline-bearing query is
        # demoted / evicted at its first check at 0 strikes.
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ProgressError("max_inflight must be None or >= 1")
        if self.admission_queue_limit < 0:
            raise ProgressError("admission_queue_limit must be >= 0")
        if self.deprioritize_after < 1:
            raise ProgressError("deprioritize_after must be >= 1")
        if self.shed_after < 1:
            raise ProgressError("shed_after must be >= 1")
        if self.policy_interval < 0:
            raise ProgressError("policy_interval must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Complete engine configuration."""

    page_size: int = DEFAULT_PAGE_SIZE
    #: Buffer pool capacity in pages.
    buffer_pool_pages: int = 2048
    #: Memory budget for one hash table or sort, in pages.  When a hash
    #: join's build side exceeds this, it partitions to disk (hybrid hash);
    #: when a sort's input exceeds it, runs spill to disk (external sort).
    work_mem_pages: int = 256
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    progress: ProgressConfig = field(default_factory=ProgressConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def with_planner(self, **kwargs) -> "SystemConfig":
        """Return a copy with planner flags replaced."""
        return replace(self, planner=replace(self.planner, **kwargs))

    def with_progress(self, **kwargs) -> "SystemConfig":
        """Return a copy with progress-indicator knobs replaced."""
        return replace(self, progress=replace(self.progress, **kwargs))

    def with_cost(self, **kwargs) -> "SystemConfig":
        """Return a copy with cost-model constants replaced."""
        return replace(self, cost=replace(self.cost, **kwargs))

    def with_service(self, **kwargs) -> "SystemConfig":
        """Return a copy with multi-tenant service knobs replaced."""
        return replace(self, service=replace(self.service, **kwargs))
