"""Rounds, per-execution invariant checks and the end-to-end metrics.

Everything here drives the system through its public surface only
(``Database.connect()/Session.submit/.result()`` for the closed-loop
workloads, ``Database.service()`` for the flood) with tracing off.
"""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import oracle
import stats
from workloads import TENANTS, Op, Workload

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed rounds, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: ``fraction_done`` must end at 1 and never step back by more than this.
FRACTION_EPSILON = 1e-9
#: Virtual elapsed of one op may differ between rounds only by float
#: rounding: a database's clock never resets, so later rounds add the same
#: 360k small charges onto a larger base (observed: 1.3e-9 on Q5).
VIRTUAL_REL_TOL = 1e-6
#: Floor (virtual seconds) on both operands of the remaining-time q-error,
#: as in ``repro.obs.observatory.scoring``.
QERROR_FLOOR_SECONDS = 1.0

#: Terminal states a flooded op may end in: the deadline misses are the
#: load shedder working as designed and show in ``finished_share``.
FLOOD_OK_STATES = frozenset({"finished", "timed_out", "shed"})
#: ``QueryService.counters`` keys reported as exact per-layer counts.
SERVICE_COUNTS = ("admitted", "queued", "shed", "deprioritized", "timed_out")


class Checker:
    """Counts executions attempted and failed; keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Invariants not tied to one execution (leaks, flood signature).
        self.broken: list[str] = []
        self.messages: list[str] = []

    def execution(self, op: Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{op.name}: {'; '.join(problems)}")

    def invariant(self, message: str) -> None:
        self.broken.append(message)
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.broken


@dataclass
class PassResult:
    """One pass over the op list (monitored or plain)."""

    latency_s: list[float] = field(default_factory=list)
    first_s: list[float] = field(default_factory=list)
    #: Virtual seconds per op (closed loop) - compared across rounds.
    virtual_s: list[float] = field(default_factory=list)
    #: ProgressLog per op (None when unmonitored or never admitted).
    logs: list = field(default_factory=list)
    states: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: Virtual-clock seconds the whole pass took.
    virtual_total_s: float = 0.0
    slices: int = 0
    #: Exact counts: buffer pool, disk, service and fault counters.
    counts: Counter = field(default_factory=Counter)
    #: Flood only: (states, steps, final clock) - identical across rounds.
    signature: Optional[tuple] = None


def log_problems(log, finished: bool) -> list[str]:
    """Monotone ``fraction_done``; exactly 1 at the end of a finished op."""
    problems = []
    fractions = [r.fraction_done for r in log.reports]
    if any(b < a - FRACTION_EPSILON for a, b in zip(fractions, fractions[1:])):
        problems.append("fraction_done stepped back")
    if finished and fractions[-1] < 1.0 - FRACTION_EPSILON:
        problems.append(f"final fraction_done {fractions[-1]!r} < 1")
    return problems


def execution_problems(
    want: dict, state: str, ok_states, row_count: Optional[int], log
) -> list[str]:
    """Why one execution of one op fails, if it does (``want`` is the
    oracle's verdict; ``row_count`` is None when the op did not finish)."""
    problems = []
    if not want["ok"]:
        problems.append(f"oracle: {want['detail']}")
    if state not in ok_states:
        problems.append(f"state {state}")
    if row_count is not None and row_count != want["rows"]:
        problems.append(f"{row_count} rows, oracle {want['rows']}")
    if log is not None:
        problems.extend(log_problems(log, finished=state == "finished"))
    return problems


def _storage_counts(dbs) -> Counter:
    total: Counter = Counter()
    for db in dbs.values():
        total.update(db.disk.io_counters())
        total["hits"] += db.buffer_pool.hits
        total["misses"] += db.buffer_pool.misses
    return total


def leak_check(dbs, checker: Checker) -> None:
    for label, db in dbs.items():
        if db.buffer_pool.pinned_count:
            checker.invariant(f"{label}: {db.buffer_pool.pinned_count} pages pinned")
        if db.disk.temp_file_count():
            checker.invariant(f"{label}: {db.disk.temp_file_count()} temp files")


def _service_leak_check(service, checker: Checker) -> None:
    if service.inflight:
        checker.invariant(f"service inflight {service.inflight} != 0")
    for tenant in service.tenants:
        if tenant.inflight or tenant.inflight_cost_pages:
            checker.invariant(f"tenant {tenant.name}: accounting leak")


# ----------------------------------------------------------------------
# closed loop


def closed_pass(
    dbs,
    ops: list[Op],
    monitor: bool,
    expect: dict,
    checker: Checker,
    check_hash: bool = False,
) -> PassResult:
    """One client, one query in flight: each op on a new ``connect()``."""
    out = PassResult()
    before = _storage_counts(dbs)
    clock_before = {label: db.clock.now for label, db in dbs.items()}
    gc.collect()
    pass_start = time.perf_counter()
    for op in ops:
        db = dbs[op.db]
        if op.restart:
            db.restart()
        first: list[float] = []
        on_report = None
        if monitor:
            def on_report(_report, first=first):
                if not first:
                    first.append(time.perf_counter())
        t0 = time.perf_counter()
        session = db.connect()
        handle = session.submit(
            op.sql,
            monitor=monitor,
            keep_rows=op.keep_rows,
            on_report=on_report,
        )
        result = handle.result()
        t1 = time.perf_counter()

        out.latency_s.append(t1 - t0)
        out.first_s.append((first[0] if first else t1) - t0)
        out.virtual_s.append(result.elapsed)
        out.logs.append(handle.log)
        out.states.append(handle.state)
        out.slices += len(handle.task.slices)
        out.counts.update(
            {k: session.service.counters[k] for k in SERVICE_COUNTS}
        )

        want = expect[op.name]
        problems = execution_problems(
            want, handle.state, ("finished",), result.row_count, handle.log
        )
        if check_hash and op.keep_rows and want["hash"] is not None:
            if oracle.row_hash(result.rows) != want["hash"]:
                problems.append("row hash differs from oracle")
        checker.execution(op, problems)
        _service_leak_check(session.service, checker)
    out.wall_s = time.perf_counter() - pass_start
    out.virtual_total_s = sum(
        db.clock.now - clock_before[label] for label, db in dbs.items()
    )
    after = _storage_counts(dbs)
    out.counts.update({k: after[k] - before[k] for k in after})
    leak_check(dbs, checker)
    return out


# ----------------------------------------------------------------------
# open loop


def flood_pass(
    workload: Workload,
    seed: int,
    ops: list[Op],
    monitor: bool,
    expect: dict,
    checker: Checker,
    recorder=None,
) -> PassResult:
    """Submit every op at virtual t = 0, then ``step()`` until idle.

    Each flood runs on a freshly built database, so the same seed replays
    the identical interleaving.  Latency is timed from the ``submit``
    call to the op's terminal transition (the scheduler's ``on_retire``
    hook), so admission-queue wait counts.
    """
    dbs = workload.build(seed)
    db = dbs["main"]
    injector = db.install_faults(workload.fault_plan(seed))
    service = db.service()
    for name, weight in TENANTS:
        service.register_tenant(name, weight=weight)

    retired_at: dict[str, float] = {}
    settle = service.scheduler.on_retire

    def on_retire(task):
        retired_at[task.name] = time.perf_counter()
        settle(task)

    service.scheduler.on_retire = on_retire
    first_at: dict[str, float] = {}
    submit_at: list[float] = []
    handles = []
    start_clock = db.clock.now
    gc.collect()

    def submit_all():
        for op in ops:
            on_report = None
            if monitor:
                def on_report(_report, name=op.name):
                    if name not in first_at:
                        first_at[name] = time.perf_counter()
            submit_at.append(time.perf_counter())
            handles.append(
                service.submit(
                    op.sql,
                    name=op.name,
                    tenant=op.tenant,
                    monitor=monitor,
                    keep_rows=False,
                    timeout=op.timeout,
                    on_report=on_report,
                )
            )

    steps = 0
    flood_start = time.perf_counter()
    if recorder is None:
        submit_all()
        while service.step() is not None:
            steps += 1
    else:
        with recorder.span("flood", query="flood"):
            with recorder.span("service.submit"):
                submit_all()
            while True:
                with recorder.span("service.step"):
                    task = service.step()
                if task is None:
                    break
                steps += 1
    flood_end = time.perf_counter()

    out = PassResult()
    out.wall_s = flood_end - flood_start
    out.virtual_total_s = db.clock.now - start_clock
    out.slices = len(service.scheduler.slices)
    for op, handle, t0 in zip(ops, handles, submit_at):
        done_at = retired_at.get(op.name, flood_end)
        out.latency_s.append(done_at - t0)
        out.first_s.append(first_at.get(op.name, done_at) - t0)
        out.states.append(handle.state)
        task = handle.task
        log = None if task is None else task.log
        out.logs.append(log)
        rows = task.result.row_count if handle.state == "finished" else None
        checker.execution(
            op,
            execution_problems(
                expect[op.name], handle.state, FLOOD_OK_STATES, rows, log
            ),
        )
    out.counts.update({k: service.counters[k] for k in SERVICE_COUNTS})
    out.counts.update(_storage_counts(dbs))
    out.counts["fault_injected"] = sum(injector.injected.values())
    out.counts["fault_retries"] = injector.retries
    out.signature = (tuple(out.states), steps, db.clock.now)
    _service_leak_check(service, checker)
    leak_check(dbs, checker)
    return out


# ----------------------------------------------------------------------
# set-up, oracle, rounds


def run_oracle(workload: Workload, seed: int) -> dict:
    """Expected row counts and hashes from the sqlite child process."""
    here = pathlib.Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, str(here / "oracle.py"), workload.name, str(seed)],
        stdout=subprocess.PIPE,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def setup_once(workload: Workload, seed: int, times=None):
    """Build + index + ANALYZE + one execution of every set-up op."""
    t0 = time.perf_counter()
    dbs = workload.build(seed, times)
    for op in workload.setup_ops(seed):
        db = dbs[op.db]
        if op.restart:
            db.restart()
        db.connect().submit(op.sql, keep_rows=op.keep_rows).result()
    return dbs, time.perf_counter() - t0


def setup(workload: Workload, seed: int, times=None):
    """``SETUP_REPS`` set-ups; the last one's databases are measured on."""
    seconds = []
    dbs = None
    for _ in range(SETUP_REPS):
        dbs = None  # let the previous instance go before building the next
        gc.collect()
        dbs, took = setup_once(workload, seed, times)
        seconds.append(took)
    return dbs, statistics.median(seconds)


@dataclass
class Rounds:
    """Warm-up round 0 plus the timed rounds of one run."""

    ops: list[Op]
    monitored: list[PassResult] = field(default_factory=list)
    plain: list[PassResult] = field(default_factory=list)
    #: Round 0 (untimed warm-up): the source of every deterministic metric,
    #: because it always starts from the same clock and cache state.
    first_monitored: Optional[PassResult] = None
    first_plain: Optional[PassResult] = None
    timed_s: float = 0.0


def run_round(workload, seed, dbs, ops, expect, checker, order, check_hash=False):
    """One monitored and one plain pass; ``order`` says which goes first."""
    passes = {}
    for monitor in order:
        if workload.closed_loop:
            passes[monitor] = closed_pass(
                dbs, ops, monitor, expect, checker, check_hash=check_hash
            )
        else:
            passes[monitor] = flood_pass(
                workload, seed, ops, monitor, expect, checker
            )
    return passes[True], passes[False]


def _cross_round_checks(workload, rounds: Rounds, mon, plain, checker) -> None:
    ref_m, ref_p = rounds.first_monitored, rounds.first_plain
    if workload.closed_loop:
        for op, a, b, c in zip(
            rounds.ops, ref_m.virtual_s, mon.virtual_s, plain.virtual_s
        ):
            for label, other in (("monitored", b), ("plain", c)):
                if abs(other - a) > VIRTUAL_REL_TOL * max(abs(a), 1.0):
                    checker.invariant(
                        f"{op.name}: virtual elapsed {other!r} ({label}) "
                        f"!= {a!r} (first monitored pass)"
                    )
    else:
        if mon.signature != ref_m.signature:
            checker.invariant("monitored flood signature changed between rounds")
        if plain.signature != ref_p.signature:
            checker.invariant("plain flood signature changed between rounds")


def run_rounds(workload, seed, dbs, expect, checker, seconds: float) -> Rounds:
    """Untimed warm-up round, then rounds until ``seconds`` are spent."""
    rounds = Rounds(ops=workload.ops(seed))
    warm_m, warm_p = run_round(
        workload, seed, dbs, rounds.ops, expect, checker, (True, False),
        check_hash=True,
    )
    rounds.first_monitored, rounds.first_plain = warm_m, warm_p
    _cross_round_checks(workload, rounds, warm_m, warm_p, checker)
    started = time.perf_counter()
    index = 0
    while True:
        order = (True, False) if index % 2 == 0 else (False, True)
        mon, plain = run_round(
            workload, seed, dbs, rounds.ops, expect, checker, order
        )
        _cross_round_checks(workload, rounds, mon, plain, checker)
        rounds.monitored.append(mon)
        rounds.plain.append(plain)
        index += 1
        spent = time.perf_counter() - started
        if index >= MIN_ROUNDS and spent + spent / index > seconds:
            break
    rounds.timed_s = time.perf_counter() - started
    return rounds


# ----------------------------------------------------------------------
# metrics


def accuracy(first: PassResult) -> tuple[float, float, int]:
    """(progress_accuracy, remaining_qerror_geomean, scored ops).

    Definitions of ``repro.obs.observatory.scoring``, computed from
    ``QueryHandle.log``: an op is *scored* when it finished and emitted
    at least one periodic report; its progress error is the mean
    ``|fraction_done - t/T|`` over its non-degraded reports and its
    q-error the geomean over the reports that carry a remaining-time
    estimate.  With no scored op both metrics read their perfect value,
    1 (no estimate was shown, so none was wrong).
    """
    errors, qerrors = [], []
    for state, log in zip(first.states, first.logs):
        if state != "finished" or log is None or len(log.reports) < 2:
            continue
        total = log.total_elapsed
        eligible = [r for r in log.reports if not r.degraded]
        if not eligible or total <= 0:
            continue
        errors.append(
            statistics.fmean(
                abs(r.fraction_done - r.elapsed / total) for r in eligible
            )
        )
        estimated = [
            stats.qerror(
                r.est_remaining_seconds,
                max(total - r.elapsed, 0.0),
                QERROR_FLOOR_SECONDS,
            )
            for r in eligible
            if r.est_remaining_seconds is not None
        ]
        if estimated:
            qerrors.append(stats.geomean(estimated))
    progress_accuracy = 1.0 - statistics.fmean(errors) if errors else 1.0
    remaining_qerror = stats.geomean(qerrors) if qerrors else 1.0
    return progress_accuracy, remaining_qerror, len(errors)


def end_to_end(workload, rounds: Rounds, setup_s: float) -> dict[str, float]:
    """The twelve end-to-end metrics, from per-op medians over the rounds."""
    med = stats.per_op_median([p.latency_s for p in rounds.monitored])
    med_plain = stats.per_op_median([p.latency_s for p in rounds.plain])
    med_first = stats.per_op_median([p.first_s for p in rounds.monitored])
    first = rounds.first_monitored
    n_ops = len(rounds.ops)
    if workload.closed_loop:
        queries_per_s = n_ops / sum(med)
        monitor_ratio = sum(med) / sum(med_plain)
    else:
        wall = statistics.median(p.wall_s for p in rounds.monitored)
        wall_plain = statistics.median(p.wall_s for p in rounds.plain)
        queries_per_s = n_ops / wall
        monitor_ratio = wall / wall_plain
    finished = sum(1 for s in first.states if s == "finished")
    progress_accuracy, remaining_qerror, _ = accuracy(first)
    return {
        "setup_s": setup_s,
        "queries_per_s": queries_per_s,
        "query_ms_geomean": 1e3 * stats.geomean(med),
        "query_ms_p50": 1e3 * stats.nearest_rank(med, 50),
        "query_ms_p90": 1e3 * stats.nearest_rank(med, 90),
        "first_report_ms_p50": 1e3 * stats.nearest_rank(med_first, 50),
        "monitor_ratio": monitor_ratio,
        "progress_accuracy": progress_accuracy,
        "remaining_qerror_geomean": remaining_qerror,
        "finished_share": finished / n_ops,
        "virtual_qps": finished / first.virtual_total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
