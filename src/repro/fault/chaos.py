"""The chaos harness: the workload suite under seeded fault schedules.

One :class:`ChaosHarness` owns a loaded TPC-R style database and a set of
fault-free baseline results (each query run solo, no injector).  Each
:meth:`~ChaosHarness.run_seed` call then replays the whole suite
concurrently under a seed-derived :class:`~repro.fault.FaultPlan` — with
some seeds also cancelling a query mid-flight, arming a statement
timeout, or deliberately breaking one indicator's refinement machinery —
and checks the robustness invariants the :mod:`repro.fault` layer
guarantees:

1. every query ends in **exactly one** terminal state (its trace carries
   exactly one of ``query_finished`` / ``query_failed`` /
   ``query_cancelled`` / ``query_timed_out`` / ``query_shed``);
2. reported progress (``done_pages``) is **monotone** over each query's
   report history, faults or not;
3. after the workload drains, **no buffer pins** remain and **no temp
   files** survive — cancellation, timeout and failure all unwound their
   operator trees;
4. queries that finish return **bit-identical rows** to their fault-free
   baseline (transient faults are retried against intact data; injection
   perturbs timing, never results);
5. a query whose refinement was sabotaged still **finishes correctly**,
   serving degraded fallback reports (the ``degraded`` trace event) —
   the paper's Section 3 "monitoring must not endanger the query",
   demonstrated under fire;
6. in whatever state a query ends, its closing program **folded its last
   counts** (the total is its segments' sum) and holds no ``sync``, parked or not.

Everything is deterministic: the same seed replays the same faults, the
same interleaving, and the same verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.config import SystemConfig
from repro.database import Database
from repro.errors import ReproError, is_transient
from repro.fault.plan import BufferPressureWindow, FaultPlan, SlowDiskWindow
from repro.workloads import queries as paper_queries
from repro.workloads import tpcr

#: Trace event kinds that terminate a query's stream.
TERMINAL_KINDS = frozenset(
    {
        "query_finished",
        "query_failed",
        "query_cancelled",
        "query_timed_out",
        "query_shed",
    }
)

#: Fixed seeds CI replays on every push (plus one fresh random seed).
CI_SEEDS = (7, 83, 2024)


def plan_for_seed(seed: int) -> FaultPlan:
    """Derive one fault schedule from a seed (deterministically varied).

    Rates hover around the ~1% regime the benchmarks use; roughly one
    seed in three raises ``max_repeat`` past the retry budget so the
    give-up path is exercised, one in four caps spill space, and half
    add a slow-disk or buffer-pressure window.
    """
    rng = random.Random(seed)
    slow: tuple[SlowDiskWindow, ...] = ()
    if rng.random() < 0.5:
        start = rng.uniform(0.0, 5.0)
        slow = (
            SlowDiskWindow(
                start=start,
                end=start + rng.uniform(1.0, 5.0),
                factor=rng.uniform(1.5, 4.0),
                period=rng.choice([None, 20.0]),
            ),
        )
    pressure: tuple[BufferPressureWindow, ...] = ()
    if rng.random() < 0.5:
        start = rng.uniform(0.0, 5.0)
        pressure = (
            BufferPressureWindow(
                start=start,
                end=start + rng.uniform(2.0, 8.0),
                reserved_frames=rng.randint(4, 10),
                period=rng.choice([None, 25.0]),
            ),
        )
    return FaultPlan(
        seed=seed,
        transient_read_rate=rng.uniform(0.001, 0.012),
        corruption_rate=rng.uniform(0.0, 0.004),
        transient_write_rate=rng.uniform(0.0, 0.006),
        # > the default retry budget of 3 on some seeds -> io_gave_up.
        max_repeat=rng.choice([1, 2, 2, 3, 6]),
        slow_windows=slow,
        pressure_windows=pressure,
        spill_capacity_pages=rng.choice([None, None, None, 40]),
    )


@dataclass
class QueryOutcome:
    """One query's fate in one chaos run."""

    name: str
    state: str
    error: Optional[str]
    rows_match: Optional[bool]  # None when the query did not finish
    degraded: int
    terminal_events: int


@dataclass
class ChaosResult:
    """One seed's verdict: outcomes, injector counters, violations."""

    seed: int
    plan: FaultPlan
    outcomes: list[QueryOutcome] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        states = ", ".join(f"{o.name}={o.state}" for o in self.outcomes)
        verdict = "ok" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"seed {self.seed}: {verdict} [{states}] {self.counters}"


def _chaos_config() -> SystemConfig:
    """Small memory budgets so joins partition and sorts spill."""
    return SystemConfig(work_mem_pages=8, buffer_pool_pages=24)


def _refinement_bomb() -> None:
    raise ReproError("chaos: refinement sabotaged")


class ChaosHarness:
    """Replays the paper's query suite under seeded fault schedules."""

    def __init__(
        self,
        scale: float = 0.002,
        subset_rows: int = 60,
        config: Optional[SystemConfig] = None,
        suite: Optional[dict[str, str]] = None,
    ) -> None:
        self.config = config or _chaos_config()
        self.suite = dict(suite or paper_queries.PAPER_QUERIES)
        self.db = tpcr.build_database(
            scale=scale, subset_rows=subset_rows, config=self.config
        )
        #: Fault-free reference rows per query (sorted for comparison).
        self.baselines: dict[str, list[tuple]] = {}
        for name, sql in self.suite.items():
            handle = self.db.connect().submit(sql, name=name, trace=False)
            self.baselines[name] = sorted(handle.result().rows)
        self.db.restart()

    # ------------------------------------------------------------------

    def run_seed(self, seed: int, concurrency: int = 1) -> ChaosResult:
        """One chaos run: install the seed's plan, drain the suite
        concurrently with mid-flight disruptions, check every invariant.

        ``concurrency`` replicates the whole suite N times in flight at
        once (copies named ``q#2``, ``q#3``, …), so overload and fault
        injection are exercised together — the regime the service
        layer's admission/shedding decisions are designed for.  Every
        copy is held to the same invariants against the same fault-free
        baseline.
        """
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        db = self.db
        plan = plan_for_seed(seed)
        result = ChaosResult(seed=seed, plan=plan)
        rng = random.Random(~seed)  # disruption stream, distinct from plan's
        workload: list[tuple[str, str, str]] = []  # (copy name, base, sql)
        for copy in range(concurrency):
            for name, sql in self.suite.items():
                copy_name = name if copy == 0 else f"{name}#{copy + 1}"
                workload.append((copy_name, name, sql))
        names = [w[0] for w in workload]

        # Seed-dependent disruptions: cancel / timeout / sabotage one
        # query each (possibly the same one), on some seeds only.
        cancel_name = rng.choice(names) if rng.random() < 0.3 else None
        cancel_after = rng.randint(5, 40)
        timeout_name = rng.choice(names) if rng.random() < 0.3 else None
        sabotage_name = rng.choice(names) if rng.random() < 0.5 else None
        sabotage_after = rng.randint(2, 25)

        db.restart()
        injector = db.install_faults(plan)
        session = db.connect()
        try:
            handles = {}
            for copy_name, _, sql in workload:
                timeout = (
                    rng.uniform(5.0, 60.0)
                    if copy_name == timeout_name
                    else None
                )
                handles[copy_name] = session.submit(
                    sql, name=copy_name, trace=True, timeout=timeout
                )

            steps = 0
            while session.step() is not None:
                steps += 1
                if cancel_name is not None and steps == cancel_after:
                    handles[cancel_name].cancel()
                if sabotage_name is not None and steps == sabotage_after:
                    task = handles[sabotage_name].task
                    if not task.done and task.indicator is not None:
                        task.indicator.estimator.snapshot = _refinement_bomb
                    else:
                        sabotage_name = None
        finally:
            db.clear_faults()

        result.counters = injector.counters()
        for copy_name, base_name, _ in workload:
            task = handles[copy_name].task
            self._check_query(
                result, copy_name, task, sabotage_name, baseline=base_name
            )
        self._check_shared_state(result)
        return result

    def run_suite(
        self, seeds: list[int], concurrency: int = 1
    ) -> list[ChaosResult]:
        return [self.run_seed(seed, concurrency=concurrency) for seed in seeds]

    # ------------------------------------------------------------------
    # invariant checks

    def _check_query(
        self, result, name, task, sabotage_name, baseline=None
    ) -> None:
        baseline = name if baseline is None else baseline
        trace = task.sealed_trace()
        terminal = (
            sum(trace.counts().get(k, 0) for k in TERMINAL_KINDS)  # noqa: REPRO112 - counts
            if trace is not None
            else -1
        )
        outcome = QueryOutcome(
            name=name,
            state=task.state,
            error=None if task.error is None else repr(task.error),
            rows_match=None,
            degraded=(
                0 if task.indicator is None else task.indicator.degraded_count
            ),
            terminal_events=terminal,
        )
        result.outcomes.append(outcome)

        if not task.done:
            result.violations.append(f"{name}: not in a terminal state")
            return
        if terminal != 1:
            result.violations.append(
                f"{name}: {terminal} terminal trace events (want exactly 1)"
            )
        if task.indicator is not None:
            tracker = task.indicator.tracker
            walk = math.fsum(c.done_bytes for c in tracker.segments)
            if tracker.sync or tracker._parked or tracker.total_done_bytes != walk:
                result.violations.append(f"{name}: tracker unfolded or still hooked")
        if task.state == "failed" and task.error is not None:
            if not isinstance(task.error, ReproError):
                result.violations.append(
                    f"{name}: failed outside the error taxonomy: "
                    f"{task.error!r}"
                )
            elif is_transient(task.error) and result.counters.get(
                "io_gave_up", 0
            ) == 0:
                result.violations.append(
                    f"{name}: transient failure surfaced without the retry "
                    f"budget being exhausted: {task.error!r}"
                )

        log = task.log
        reports = [] if log is None else log.reports
        done_pages = [r.done_pages for r in reports]
        if any(b < a - 1e-9 for a, b in zip(done_pages, done_pages[1:])):
            result.violations.append(f"{name}: done_pages not monotone")

        if task.state == "finished":
            outcome.rows_match = sorted(task.rows) == self.baselines[baseline]
            if not outcome.rows_match:
                result.violations.append(
                    f"{name}: finished with rows differing from the "
                    f"fault-free baseline"
                )
        if name == sabotage_name:
            if outcome.degraded == 0:
                result.violations.append(
                    f"{name}: refinement sabotaged but indicator never "
                    f"degraded"
                )
            if task.state == "finished" and trace is not None and not any(
                True for _ in trace.of_kind("degraded")
            ):
                result.violations.append(
                    f"{name}: degradation left no trace event"
                )

    def _check_shared_state(self, result: ChaosResult) -> None:
        pins = self.db.buffer_pool.pinned_count
        if pins:
            result.violations.append(f"{pins} buffer pins leaked")
        temps = self.db.disk.temp_file_count()
        if temps:
            result.violations.append(f"{temps} temp files leaked")
