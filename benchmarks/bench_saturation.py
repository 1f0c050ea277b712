"""EXP A9 — service saturation: overload behavior at 100/1k/10k in flight.

The tentpole claim of the service layer is *degrade, don't die*: under a
flood of submissions and an injected fault schedule, the admission
controller bounds the active set, the fair-share policy keeps slices
flowing, and the progress-driven shedding loop evicts queries predicted
to miss their deadlines so the capacity they would have burned goes to
queries that can still make theirs.

Each level submits N queries up front (two thirds light scans/joins with
makeable deadlines, one third heavy three-way joins with tight ones),
admission-bounded to 64 in flight, under a seeded mild chaos plan
(transient I/O faults with recovery, a slow-disk window, a buffer
pressure window).  Everything runs on the virtual clock from one seed,
so the whole experiment is deterministic — the smoke test replays a
level twice and asserts identical outcomes.

Measurements per level, shedding off vs on, same seed:

* queries/sec — virtual (throughput on the engine's clock) and real
  (host wall time, the harness cost);
* p99 submit-to-first-report latency: the virtual delay between
  ``service.submit`` and the query's first indicator report, including
  any admission-queue wait;
* deadline-hit rate: fraction of submissions that finished before their
  deadline.  The acceptance bar is shedding-on strictly better than
  shedding-off at every level.

The 1k run doubles as the invariant audit: every admitted query retires
exactly once (counted via a wrapped ``on_retire``), ends in exactly one
terminal state with a finalized indicator and monotone progress reports,
and the shared engine state (buffer pins, temp files, per-tenant
accounting) settles to zero.

Not a duplicate of ``benchmarks/e2e``: only this bench compares shedding
on against off at 100/1k/10k and runs the retire-exactly-once audit; the
gated real-time number for the flood is ``queries_per_s`` on
``service_flood`` (``qps_real`` here is advisory).
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from common import run_once, write_bench_json

from repro.config import SystemConfig
from repro.fault.plan import BufferPressureWindow, FaultPlan, SlowDiskWindow
from repro.sched.task import DONE_STATES
from repro.workloads import tpcr

SEED = 7
LEVELS = (100, 1_000, 10_000)
#: Admission bound: the scheduler's active set never exceeds this, no
#: matter how many submissions are waiting in the admission queue.
MAX_INFLIGHT = 64
#: The level whose run carries the full invariant audit.
AUDIT_LEVEL = 1_000

LIGHT = (
    "select * from lineitem",
    "select * from customer",
    "select c.custkey, o.totalprice from customer c, orders o "
    "where c.custkey = o.custkey",
)
HEAVY = (
    "select c.custkey, o.totalprice, l.extendedprice "
    "from customer c, orders o, lineitem l "
    "where c.custkey = o.custkey and o.orderkey = l.orderkey"
)


def _fault_plan(seed: int) -> FaultPlan:
    """Mild chaos: faults perturb timing and force retries/evictions but
    every query remains completable — failures would muddy the hit-rate
    comparison the bench exists to make."""
    return FaultPlan(
        seed=seed,
        transient_read_rate=0.008,
        transient_write_rate=0.004,
        max_repeat=1,
        slow_windows=(
            SlowDiskWindow(start=5.0, end=25.0, factor=2.5, period=60.0),
        ),
        pressure_windows=(
            BufferPressureWindow(
                start=10.0, end=20.0, reserved_frames=8, period=50.0
            ),
        ),
    )


def _config(level: int, shedding: bool) -> SystemConfig:
    return SystemConfig(work_mem_pages=8, buffer_pool_pages=24).with_service(
        max_inflight=MAX_INFLIGHT,
        admission_queue_limit=2 * level,
        shedding=shedding,
        policy_interval=2.0,
        deprioritize_after=1,
        shed_after=2,
    )


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]


def _run_level(level: int, shedding: bool, audit: bool = False) -> dict:
    db = tpcr.build_database(
        scale=0.002, subset_rows=60, config=_config(level, shedding)
    )
    db.install_faults(_fault_plan(SEED))
    service = db.service()

    retired: Counter = Counter()
    if audit:
        inner = service.scheduler.on_retire

        def counting_retire(task):
            retired[task.name] += 1
            inner(task)

        service.scheduler.on_retire = counting_retire

    # Same rng seed for shedding on and off: identical workloads, so the
    # hit-rate comparison isolates the policy.
    rng = random.Random(SEED)
    start_clock = db.clock.now
    handles = []
    for i in range(level):
        if i % 3 == 0:
            sql, timeout = HEAVY, rng.uniform(40.0, 90.0)
        else:
            sql, timeout = LIGHT[i % len(LIGHT)], rng.uniform(80.0, 250.0)
        handles.append(
            service.submit(
                sql, name=f"s{i}", keep_rows=False, timeout=timeout
            )
        )

    t0 = time.perf_counter()
    steps = 0
    while service.step() is not None:
        steps += 1
    wall = time.perf_counter() - t0
    vclock = db.clock.now - start_clock

    states = Counter(h.state for h in handles)
    hits = states.get("finished", 0)
    latencies = [
        first - h.submitted_at
        for h in handles
        if (first := h.first_report_time()) is not None
    ]

    violations: list[str] = []
    if audit:
        admitted = [h for h in handles if h.task is not None]
        if sorted(retired) != sorted(h.name for h in admitted):
            violations.append("retired set != admitted set")
        violations.extend(
            f"{name}: retired {n} times" for name, n in retired.items() if n != 1
        )
        for h in admitted:
            task = h.task
            if task.state not in DONE_STATES:
                violations.append(f"{task.name}: non-terminal {task.state}")
            if task.indicator is not None and not task.indicator.finalized:
                violations.append(f"{task.name}: indicator not finalized")
            if task.log is not None:
                done = [r.done_pages for r in task.log.reports]
                if any(b < a - 1e-9 for a, b in zip(done, done[1:])):
                    violations.append(f"{task.name}: done_pages regressed")
        if service.inflight != 0:
            violations.append(f"inflight {service.inflight} != 0")
        for tenant in service.tenants:
            if tenant.inflight or tenant.inflight_cost_pages:
                violations.append(f"tenant {tenant.name}: accounting leak")
        if db.buffer_pool.pinned_count != 0:
            violations.append(f"{db.buffer_pool.pinned_count} pages pinned")
        if db.disk.temp_file_count() != 0:
            violations.append(f"{db.disk.temp_file_count()} temp files leaked")

    return {
        "level": level,
        "shedding": shedding,
        "steps": steps,
        "wall_s": wall,
        "vclock_s": vclock,
        "hits": hits,
        "hit_rate": hits / level,
        "states": dict(states),
        "shed": service.counters["shed"],
        "deprioritized": service.counters["deprioritized"],
        "qps_virtual": level / vclock,
        "qps_real": level / wall,
        "p99_first_report_s": _p99(latencies),
        "violations": violations,
        # Determinism signature: outcome of every submission plus the
        # exact interleaving footprint.
        "signature": (
            tuple(h.state for h in handles),
            steps,
            round(vclock, 9),
        ),
    }


def _render(rows: list[dict]) -> str:
    lines = [
        "Extension A9: service saturation under seeded chaos "
        f"(seed {SEED}, max_inflight {MAX_INFLIGHT})",
        f"  {'in flight':>10} {'shedding':>9} {'hit rate':>9} "
        f"{'shed':>6} {'depri':>6} {'p99 first report':>17} "
        f"{'q/s virt':>9} {'q/s real':>9}",
    ]
    for r in rows:
        lines.append(
            f"  {r['level']:>10} {'on' if r['shedding'] else 'off':>9} "
            f"{r['hit_rate']:>9.3f} {r['shed']:>6} {r['deprioritized']:>6} "
            f"{r['p99_first_report_s']:>15.1f} s "
            f"{r['qps_virtual']:>9.2f} {r['qps_real']:>9.0f}"
        )
    return "\n".join(lines)


def _assert_shedding_strictly_better(off: dict, on: dict) -> None:
    assert on["hit_rate"] > off["hit_rate"], (
        f"level {on['level']}: shedding-on hit rate {on['hit_rate']:.3f} "
        f"not strictly better than off {off['hit_rate']:.3f}"
    )
    # Degrade, don't die: chaos may slow queries but never kills one.
    for r in (off, on):
        assert r["states"].get("failed", 0) == 0, r["states"]


def test_saturation_smoke(benchmark, record_figure):
    """CI-sized run: one level, invariant audit, determinism replay."""

    def _run():
        off = _run_level(100, shedding=False)
        on = _run_level(100, shedding=True, audit=True)
        replay = _run_level(100, shedding=True)
        return off, on, replay

    off, on, replay = run_once(benchmark, _run)
    assert on["violations"] == []
    assert on["signature"] == replay["signature"], "saturation run not deterministic"
    _assert_shedding_strictly_better(off, on)
    assert on["shed"] > 0  # the policy actually evicts, not just demotes
    record_figure("saturation_smoke", _render([off, on]))


def test_saturation(benchmark, record_figure):
    """The full sweep; writes the committed figure and JSON document."""

    def _run():
        rows = []
        for level in LEVELS:
            off = _run_level(level, shedding=False)
            on = _run_level(level, shedding=True, audit=level == AUDIT_LEVEL)
            rows.extend((off, on))
        return rows

    rows = run_once(benchmark, _run)
    by_mode: dict[bool, list[dict]] = {False: [], True: []}
    for r in rows:
        by_mode[r["shedding"]].append(r)
    for off, on in zip(by_mode[False], by_mode[True]):
        _assert_shedding_strictly_better(off, on)
        if on["level"] == AUDIT_LEVEL:
            assert on["violations"] == [], on["violations"]
            assert on["shed"] > 0

    record_figure("saturation", _render(rows))
    write_bench_json(
        "saturation",
        series={
            "hit_rate_shed_off": [
                (r["level"], r["hit_rate"]) for r in by_mode[False]
            ],
            "hit_rate_shed_on": [
                (r["level"], r["hit_rate"]) for r in by_mode[True]
            ],
            "p99_first_report_s_off": [
                (r["level"], r["p99_first_report_s"]) for r in by_mode[False]
            ],
            "p99_first_report_s_on": [
                (r["level"], r["p99_first_report_s"]) for r in by_mode[True]
            ],
        },
        scalars={
            f"l{r['level']}_{'on' if r['shedding'] else 'off'}_{key}": r[key]
            for r in rows
            for key in (
                "hit_rate", "qps_virtual", "qps_real",
                "p99_first_report_s", "shed", "deprioritized",
            )
        },
        meta={
            "seed": SEED,
            "levels": list(LEVELS),
            "max_inflight": MAX_INFLIGHT,
            "audit_level": AUDIT_LEVEL,
            "audit_violations": next(
                r["violations"]
                for r in rows
                if r["shedding"] and r["level"] == AUDIT_LEVEL
            ),
            "fault_plan": {
                "transient_read_rate": 0.008,
                "transient_write_rate": 0.004,
                "max_repeat": 1,
                "slow_window": [5.0, 25.0, 2.5, 60.0],
                "pressure_window": [10.0, 20.0, 8, 50.0],
            },
        },
    )
