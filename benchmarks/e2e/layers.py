"""The traced run: span-recorded round plus the per-layer probes.

A layer is a package under ``src/repro/``.  Layers with a call boundary
the benchmark can stand on (``sql``, ``planner``, ``core`` set-up,
``executor`` compile/run) are measured by driving each op *stage by
stage* under the span recorder.  Layers that live inside the row loop
(``storage``, ``sim``, ``core`` tracking, ``obs``, ``fault``, ``sched``)
have no such boundary, so they come from differential passes (the same
ops with and without the layer) and from micro-measurements of their
public entry points.  Exact counts come from the first monitored pass,
which always starts from the same clock and cache state.

Differential ratios use each op's *minimum* over the repetitions: the
work is deterministic, so the fastest repetition is the one least
disturbed by the machine.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import replace
from typing import Callable

import measure
import stats
from spans import END, NAME, START, SpanRecorder
from workloads import BuildTimes, Op, Workload

from repro.analysis.gate import gate_segments
from repro.core.indicator import ProgressIndicator
from repro.core.segments import build_segments, initial_total_cost_bytes
from repro.executor.base import PULSE, ExecContext
from repro.executor.fused import FusedQuery
from repro.executor.runtime import check_tracker_alignment, execute, run_query
from repro.fault.plan import FaultPlan
from repro.obs.bus import TraceBus
from repro.obs.events import TickerFired
from repro.planner.optimizer import Optimizer
from repro.service.admission import AdmissionController
from repro.service.tenant import Tenant
from repro.sim.clock import VirtualClock
from repro.sql.binder import Binder
from repro.sql.parser import parse_select

#: Untraced monitored passes the traced round is compared against.
UNTRACED_ROUNDS = 3
#: Most repetitions of the differential probe passes.
MAX_PROBE_REPS = 5
#: Calls per micro-measurement loop.
MICRO_CALLS = 100_000

#: Spans of the staged drive that run before the first row flows.
FRONT_END_SPANS = (
    "sql.parse",
    "sql.bind",
    "planner.optimize",
    "core.segments",
    "core.indicator_init",
    "executor.compile",
)


# ----------------------------------------------------------------------
# staged drive (the traced round)


def staged_op(db, op: Op, rec: SpanRecorder) -> tuple[int, int]:
    """Run one op stage by stage under spans; returns (rows, items).

    The stages are the monitored path of ``CooperativeScheduler.submit``
    + ``runtime.execute`` called directly, without a session: what the
    session, service and scheduler add is ``sched.solo_ratio``.
    """
    if op.restart:
        db.restart()
    rows = items = 0
    kept: list = []  # retained like the session would, so the cost is paid
    with rec.span("query", query=op.name):
        with rec.span("sql.parse"):
            statement = parse_select(op.sql)
        with rec.span("sql.bind"):
            bound = Binder(db.catalog).bind(statement)
        with rec.span("planner.optimize"):
            planned = Optimizer(db.config).plan(bound)
        with rec.span("core.segments"):
            # The admission-time costing of QueryService.submit.
            initial_total_cost_bytes(build_segments(planned.root))
        with rec.span("core.indicator_init"):
            indicator = ProgressIndicator(
                planned, db.clock, db.config,
                label=op.name, history=db.history_store,
            )
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config,
            tracker=indicator.tracker,
        )
        with rec.span("executor.compile"):
            check_tracker_alignment(planned.root, indicator.tracker)
            fused = FusedQuery(planned.root, ctx)
        with rec.span("executor.run"):
            try:
                for item in fused.run():
                    items += 1
                    if item is not PULSE:
                        batch = item.rows()
                        rows += len(batch)
                        if op.keep_rows:
                            kept.extend(batch)
            finally:
                fused.close()
            indicator.tracker.finish_all()
        with rec.span("core.finalize"):
            indicator.finalize()
    return rows, items


def traced_round(workload, seed, dbs, ops, expect, checker, rec) -> dict[str, int]:
    """The extra round under the span recorder; returns items per op."""
    items = {}
    if not workload.closed_loop:
        measure.flood_pass(workload, seed, ops, True, expect, checker, recorder=rec)
        return items
    for op in ops:
        rows, items[op.name] = staged_op(dbs[op.db], op, rec)
        problems = []
        if rows != expect[op.name]["rows"]:
            problems.append(f"traced: {rows} rows, oracle {expect[op.name]['rows']}")
        checker.execution(op, problems)
    return items


def span_shares(rec: SpanRecorder, root: str, front: tuple, run: str):
    """(front-end share, run share) of the summed ``root`` spans."""
    total = rec.total_ns()
    whole = total.get(root, 0)
    if not whole:
        return 0.0, 0.0
    return (
        sum(total.get(name, 0) for name in front) / whole,
        total.get(run, 0) / whole,
    )


def span_median_us(rec: SpanRecorder, name: str) -> float:
    durations = [s[END] - s[START] for s in rec.spans if s[NAME] == name]
    return statistics.median(durations) / 1e3 if durations else 0.0


# ----------------------------------------------------------------------
# differential probe passes


class Probes:
    """Probe ops with their prepared plans, on the workload's databases."""

    def __init__(self, dbs, ops: list[Op]) -> None:
        self.dbs = dbs
        self.ops = ops
        self.plans = [dbs[op.db].prepare(op.sql) for op in ops]
        #: Filled by the passes: rows produced / trace events per op.
        self.rows = [0] * len(ops)
        self.events = [0] * len(ops)

    def ctx(self, db, tracker=None, config=None):
        return ExecContext(
            db.clock, db.disk, db.buffer_pool, config or db.config,
            tracker=tracker,
        )

    def each(self, body: Callable, restart: bool = True) -> list[float]:
        """Real seconds of ``body(index, db, op, planned)`` per probe op."""
        walls = []
        gc.collect()
        for index, (op, planned) in enumerate(zip(self.ops, self.plans)):
            db = self.dbs[op.db]
            if restart and op.restart:
                db.restart()
            t0 = time.perf_counter()
            body(index, db, op, planned)
            walls.append(time.perf_counter() - t0)
        return walls

    # one body per variant -------------------------------------------------

    def direct_plain(self, index, db, op, planned):
        result = run_query(planned, self.ctx(db), keep_rows=op.keep_rows)
        self.rows[index] = result.row_count

    def direct_row_engine(self, index, db, op, planned):
        config = replace(db.config, progress=replace(db.config.progress, engine="row"))
        run_query(planned, self.ctx(db, config=config), keep_rows=op.keep_rows)

    def direct_monitored(self, index, db, op, planned):
        indicator = ProgressIndicator(
            planned, db.clock, db.config, history=db.history_store
        )
        run_query(
            planned, self.ctx(db, tracker=indicator.tracker),
            keep_rows=op.keep_rows,
        )
        indicator.finalize()

    def session(self, **submit_kwargs) -> Callable:
        def body(index, db, op, planned):
            handle = db.connect().submit(
                planned, keep_rows=op.keep_rows, **submit_kwargs
            )
            handle.result()
            if submit_kwargs.get("trace"):
                self.events[index] = len(handle.trace())

        return body


def ratio(numerator: list[float], denominator: list[float]) -> float:
    return sum(numerator) / sum(denominator)


def differential(probes: Probes, budget_s: float) -> dict[str, float]:
    """Interleaved probe passes, repeated while the budget lasts."""
    variants: dict[str, tuple[Callable, bool]] = {
        "plain": (probes.direct_plain, True),
        "warm": (probes.direct_plain, False),
        "row": (probes.direct_row_engine, True),
        "monitored": (probes.direct_monitored, True),
        "session": (probes.session(), True),
        "ensemble": (probes.session(estimator="ensemble"), True),
        "traced": (probes.session(trace=True), True),
    }
    best: dict[str, list[float]] = {}

    def keep(name: str, walls: list[float]) -> None:
        old = best.get(name)
        best[name] = walls if old is None else [min(a, b) for a, b in zip(old, walls)]

    started = time.perf_counter()
    reps = 0
    while reps < MAX_PROBE_REPS:
        for name, (body, restart) in variants.items():
            keep(name, probes.each(body, restart=restart))
        # The storage hooks test ``faults is not None`` per page: a plan
        # that can never fire measures the cost of having one installed.
        for db in probes.dbs.values():
            db.install_faults(FaultPlan(seed=1))
        try:
            keep("hooked", probes.each(probes.direct_plain))
        finally:
            for db in probes.dbs.values():
                db.clear_faults()
        reps += 1
        spent = time.perf_counter() - started
        if spent + spent / reps > budget_s:
            break

    plain = best["plain"]
    rows = sum(probes.rows)
    return {
        "core.tracking_ratio": ratio(best["monitored"], plain),
        "estimators.ensemble_ratio": ratio(best["ensemble"], best["session"]),
        "executor.run_ms": 1e3 * statistics.median(plain),
        "executor.rows_per_s": rows / sum(plain),
        "executor.row_engine_ratio": stats.geomean(
            r / b for r, b in zip(best["row"], plain)
        ),
        "storage.cold_ratio": ratio(plain, best["warm"]),
        "obs.trace_ratio": ratio(best["traced"], best["session"]),
        "obs.events_per_query": statistics.fmean(probes.events),
        "sched.solo_ratio": ratio(best["session"], best["monitored"]),
        "fault.hook_ratio": ratio(best["hooked"], plain),
        "planner.rows_qerror": stats.geomean(
            stats.qerror(planned.root.est_rows, actual, 1.0)
            for planned, actual in zip(probes.plans, probes.rows)
        ),
    }


# ----------------------------------------------------------------------
# single-call probes and micro-measurements


def median_us(fn: Callable[[], object], reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / 1e3


def per_call_ns(fn: Callable[[], object], calls: int = MICRO_CALLS) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    return (time.perf_counter_ns() - t0) / calls


def call_probes(probes: Probes, items: dict[str, int]) -> dict[str, float]:
    """Per-op calls that no span of the staged drive isolates."""
    gate, report, snapshot, submit, submit_sql = [], [], [], [], []
    for op, planned in zip(probes.ops, probes.plans):
        db = probes.dbs[op.db]
        specs = build_segments(planned.root)
        gate.append(
            median_us(lambda: gate_segments(planned.root, specs, config=db.config))
        )

        # Mid-query: drive the executor half way, then ask the indicator.
        indicator = ProgressIndicator(
            planned, db.clock, db.config, history=db.history_store
        )
        stream = execute(planned, probes.ctx(db, tracker=indicator.tracker))
        try:
            for _ in range(max(1, items.get(op.name, 2) // 2)):
                next(stream, None)
            report.append(median_us(indicator.report))
            snapshot.append(median_us(indicator.snapshot))
        finally:
            stream.close()
            indicator.abort()

        service = db.service()
        for source, samples in ((planned, submit), (op.sql, submit_sql)):
            times = []
            for _ in range(3):
                t0 = time.perf_counter_ns()
                handle = service.submit(source, keep_rows=False)
                times.append(time.perf_counter_ns() - t0)
                handle.cancel()
            samples.append(statistics.median(times) / 1e3)
    return {
        "analysis.gate_us": statistics.median(gate),
        "core.report_us": statistics.median(report),
        "estimators.snapshot_us": statistics.median(snapshot),
        "service.submit_us": statistics.median(submit),
        "service.submit_sql_us": statistics.median(submit_sql),
    }


def micro(probes: Probes) -> dict[str, float]:
    """Tight loops over the hot public entry points of sim/storage/obs/service."""
    out = {}
    cost = 1e-4  # one cpu_tuple charge

    clock = VirtualClock()
    out["sim.advance_ns"] = per_call_ns(lambda: clock.advance(cost))

    # The same loop with one indicator's speed and report tickers armed:
    # they fire every 10k / 100k calls and bound every fast-path compare.
    op, planned = probes.ops[0], probes.plans[0]
    db = probes.dbs[op.db]
    clock = VirtualClock()
    indicator = ProgressIndicator(planned, clock, db.config)
    out["sim.advance_ticker_ns"] = per_call_ns(lambda: clock.advance(cost))
    indicator.abort()

    # Buffer pool: the largest table that fits in half the pool, first
    # after clear() (every call a miss), then again (every call a hit).
    pool = db.buffer_pool
    tables = sorted(db.catalog.tables(), key=lambda t: t.num_pages)
    fitting = [t for t in tables if t.num_pages <= pool.capacity // 2]
    table = fitting[-1] if fitting else tables[0]
    handle, pages = table.heap.handle, table.num_pages
    miss_ns, hit_ns, loops = 0, 0, max(1, 2_000 // pages)
    for _ in range(loops):
        pool.clear()
        t0 = time.perf_counter_ns()
        for page_no in range(pages):
            pool.get_page(handle, page_no)
        t1 = time.perf_counter_ns()
        for page_no in range(pages):
            pool.get_page(handle, page_no)
        t2 = time.perf_counter_ns()
        miss_ns += t1 - t0
        hit_ns += t2 - t1
    out["storage.get_page_miss_ns"] = miss_ns / (loops * pages)
    out["storage.get_page_hit_ns"] = hit_ns / (loops * pages)

    bus = TraceBus()
    event = TickerFired(t=0.0, name="speed", interval=1.0)
    out["obs.emit_ns"] = per_call_ns(lambda: bus.emit(event))

    controller = AdmissionController(db.config.service)
    tenant = Tenant("probe")
    out["service.decide_ns"] = per_call_ns(
        lambda: controller.decide(tenant, 10.0, 3, 0)
    )
    return out


# ----------------------------------------------------------------------
# the whole traced run


def exact_counts(ops: list[Op], first: measure.PassResult) -> dict[str, float]:
    counts = first.counts
    accesses = counts["hits"] + counts["misses"]
    periodic = sum(len(log.reports) - 1 for log in first.logs if log is not None)
    out = {
        "storage.hit_rate": counts["hits"] / accesses if accesses else 0.0,
        "storage.seq_reads": counts["seq_reads"],
        "storage.random_reads": counts["random_reads"],
        "storage.writes": counts["writes"],
        "sim.virtual_s": first.virtual_total_s,
        "sched.slices": first.slices,
        "core.reports_per_query": periodic / len(ops),
        "fault.injected": counts.get("fault_injected", 0),
        "fault.retries": counts.get("fault_retries", 0),
    }
    for key in measure.SERVICE_COUNTS:
        out[f"service.{key}"] = counts[key]
    return out


def run(workload: Workload, seed: int, seconds: float, expect, checker):
    """Returns (per-layer metrics, span recorder)."""
    started = time.perf_counter()
    times = BuildTimes()
    dbs, _ = measure.setup(workload, seed, times)
    ops = workload.ops(seed)

    first, _plain = measure.run_round(
        workload, seed, dbs, ops, expect, checker, (True, False), check_hash=True
    )
    metrics = exact_counts(ops, first)

    untraced = [first]
    for _ in range(UNTRACED_ROUNDS - 1):
        if workload.closed_loop:
            untraced.append(measure.closed_pass(dbs, ops, True, expect, checker))
        else:
            untraced.append(
                measure.flood_pass(workload, seed, ops, True, expect, checker)
            )

    rec = SpanRecorder()
    items = traced_round(workload, seed, dbs, ops, expect, checker, rec)

    if workload.closed_loop:
        med = stats.per_op_median([p.latency_s for p in untraced])
        untraced_s = sum(med)
        traced_s = rec.total_ns()["query"] / 1e9
        front, running = span_shares(rec, "query", FRONT_END_SPANS, "executor.run")
        probe_dbs = dbs
    else:
        untraced_s = statistics.median(p.wall_s for p in untraced)
        traced_s = rec.total_ns()["flood"] / 1e9
        front, running = span_shares(
            rec, "flood", ("service.submit",), "service.step"
        )
        # The flooded databases are spent; probe a fresh, fault-free one,
        # and stage its probe ops so the stage spans exist here too.
        probe_dbs = workload.build(seed)
        for op in workload.probe_ops(seed):
            _, items[op.name] = staged_op(probe_dbs[op.db], op, rec)
    metrics["bench.trace_overhead_ratio"] = traced_s / untraced_s
    metrics["bench.frontend_share"] = front
    metrics["bench.run_share"] = running
    metrics["sched.step_us"] = 1e6 * untraced_s / first.slices

    for name, span in (
        ("sql.parse_us", "sql.parse"),
        ("sql.bind_us", "sql.bind"),
        ("planner.optimize_us", "planner.optimize"),
        ("core.segments_us", "core.segments"),
        ("core.indicator_init_us", "core.indicator_init"),
        ("executor.compile_us", "executor.compile"),
        ("core.finalize_us", "core.finalize"),
    ):
        metrics[name] = span_median_us(rec, span)

    probes = Probes(probe_dbs, workload.probe_ops(seed))
    metrics.update(call_probes(probes, items))
    metrics.update(micro(probes))
    budget = max(0.0, seconds - (time.perf_counter() - started))
    metrics.update(differential(probes, budget))
    measure.leak_check(probe_dbs, checker)

    metrics["workloads.build_s"] = times.load_s / measure.SETUP_REPS
    metrics["storage.index_build_s"] = times.index_s / measure.SETUP_REPS
    metrics["catalog.analyze_s"] = times.analyze_s / measure.SETUP_REPS
    return metrics, rec
