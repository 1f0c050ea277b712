"""The four benchmark workloads: seeded op lists and the databases they run on.

A workload is a fixed, seeded list of *operations* (one op = one query,
submit -> terminal state) plus a recipe for the database(s) it runs
against.  ``--seed`` derives everything that varies: the data seed, the
lookup keys, which submission gets which deadline and the fault-plan
seed.  What does *not* vary with the seed is the shape of the load (how
many ops of each template and in which order, the set of deadline
values), so two seeds measure the same distribution and differ only in
which keys and rows they touch.

Why each workload exists is recorded in ``Workload.why`` (and mirrored
in ``BENCHMARK.json`` and the README).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.database import Database
from repro.fault.plan import BufferPressureWindow, FaultPlan, SlowDiskWindow
from repro.workloads import queries, tpcr


@dataclass(frozen=True)
class Op:
    """One operation of a workload."""

    name: str
    sql: str
    #: Template the op was drawn from (ops of one template share a plan shape).
    template: str
    #: Which of the workload's databases runs it.
    db: str = "main"
    keep_rows: bool = False
    #: Cold-start the buffer pool before the op (paper section 5.1).
    restart: bool = False
    #: Open-loop only: tenant and statement timeout in virtual seconds.
    tenant: str = "default"
    timeout: Optional[float] = None


@dataclass
class BuildTimes:
    """Real seconds spent in each build stage (the set-up layer metrics)."""

    load_s: float = 0.0
    index_s: float = 0.0
    analyze_s: float = 0.0


class Workload:
    """Base class: a name, a reason, databases and an op list."""

    name = ""
    why = ""
    #: False for the open-loop flood (driven by ``measure.run_flood``).
    closed_loop = True
    #: Data scale and Q5 subset size of the TPC-R generator.
    scale = 0.01
    subset_rows: Optional[int] = None
    #: (table, column) pairs indexed at set-up.
    indexes: tuple = ()
    #: Number of ops that feed the differential per-layer probes.
    probe_count = 8

    def configs(self) -> dict[str, SystemConfig]:
        """Database label -> configuration (most workloads have one)."""
        raise NotImplementedError

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def rng(self, seed: int, purpose: str) -> random.Random:
        """One independent, reproducible stream per (workload, seed, use)."""
        return random.Random(f"{self.name}:{seed}:{purpose}")

    def data_seed(self, seed: int) -> int:
        return self.rng(seed, "data").randrange(1, 2**31)

    def build(
        self, seed: int, times: Optional[BuildTimes] = None
    ) -> dict[str, Database]:
        """Build, index and ANALYZE every database of the workload."""
        times = times if times is not None else BuildTimes()
        dbs = {}
        for label, config in self.configs().items():
            t0 = time.perf_counter()
            db = tpcr.build_database(
                scale=self.scale,
                subset_rows=self.subset_rows,
                config=config,
                seed=self.data_seed(seed),
                analyze=False,
            )
            t1 = time.perf_counter()
            for table, column in self.indexes:
                db.create_index(table, column)
            t2 = time.perf_counter()
            db.analyze()
            t3 = time.perf_counter()
            times.load_s += t1 - t0
            times.index_s += t2 - t1
            times.analyze_s += t3 - t2
            dbs[label] = db
        return dbs

    def setup_ops(self, seed: int) -> list[Op]:
        """Ops executed once inside ``setup_s`` (default: all of them)."""
        return self.ops(seed)

    def probe_ops(self, seed: int) -> list[Op]:
        """A small, template-balanced sample for the per-layer probes."""
        by_template: dict[str, list[Op]] = {}
        for op in self.ops(seed):
            by_template.setdefault(op.template, []).append(op)
        per = max(1, self.probe_count // len(by_template))
        picked = []
        for ops in by_template.values():
            picked.extend(ops[:per])
        return picked


# ----------------------------------------------------------------------
# paper_solo


class PaperSolo(Workload):
    name = "paper_solo"
    why = (
        "the paper's own Q1-Q5, cold, one in flight: executor loops, "
        "clock charges and per-row tracking are >95% of the time, "
        "the front end <1%"
    )
    probe_count = 5

    def configs(self):
        return {"main": SystemConfig(work_mem_pages=24, buffer_pool_pages=2048)}

    def ops(self, seed):
        # Always Q1..Q5 in order; the seed reaches this workload through
        # the data only (a seeded order moved Q1 and Q3 by 10 % depending
        # on whether they ran right after Q5's 360k-row result).
        return [
            Op(name=name, sql=sql, template=name, restart=True)
            for name, sql in queries.PAPER_QUERIES.items()
        ]


# ----------------------------------------------------------------------
# point_lookups

class PointLookups(Workload):
    name = "point_lookups"
    why = (
        "~1 ms warm lookups where parse/bind/optimize, indicator set-up, "
        "fused compile and session set-up are ~90% of the time: an "
        "inner-loop change must show nothing here"
    )
    indexes = (("customer", "custkey"), ("orders", "custkey"))
    probe_count = 40
    #: Ops per template; equal counts keep the latency mix seed-independent.
    per_template = 75

    def configs(self):
        return {"main": SystemConfig(work_mem_pages=24, buffer_pool_pages=2048)}

    def ops(self, seed):
        rng = self.rng(seed, "keys")
        customers = round(tpcr.CUSTOMER_BASE * self.scale)
        specs = []
        for _ in range(self.per_template):
            key = rng.randint(1, customers)
            specs.append(("cust_by_key", f"select * from customer where custkey = {key}"))
            key = rng.randint(1, customers)
            specs.append((
                "orders_by_cust",
                f"select orderkey, totalprice from orders where custkey = {key}",
            ))
            nation = rng.randrange(1, tpcr.NATION_COUNT)
            specs.append((
                "subset_count",
                f"select count(*) from customer_subset1 where nationkey < {nation}",
            ))
            nation = rng.randrange(tpcr.NATION_COUNT)
            specs.append((
                "subset_rows",
                f"select * from customer_subset2 where nationkey = {nation}",
            ))
        return [
            Op(name=f"p{i:03d}", sql=sql, template=template, keep_rows=True)
            for i, (template, sql) in enumerate(specs)
        ]


# ----------------------------------------------------------------------
# cold_spill

_SORT_SQL = "select * from lineitem order by extendedprice"
_GROUP_SQL = "select suppkey, count(*) from lineitem group by suppkey"
_SMJ_SQL = (
    "select c.custkey, o.orderkey, o.totalprice "
    "from customer c, orders o where c.custkey = o.custkey"
)


class ColdSpill(Workload):
    name = "cold_spill"
    why = (
        "working set ~10x a 64-page pool, 8-page work_mem: every page a "
        "miss with an eviction, random reads and spill writes - storage "
        "used the other way round from point_lookups' warm hits"
    )
    indexes = (("customer", "custkey"), ("orders", "custkey"))
    probe_count = 12
    #: Cold index lookups mixed in with the five big statements.  With 24
    #: (29 ops) the nearest-rank p90 is rank 27: the *median* big statement,
    #: not the boundary between the two groups, where it would flip with
    #: the seed between a 60 ms and an 85 ms statement.
    lookups = 24

    def configs(self):
        main = SystemConfig(work_mem_pages=8, buffer_pool_pages=64)
        return {
            "main": main,
            # Sort-merge is never the cheapest plan here; a second
            # instance with the other join methods off forces it.
            "smj": main.with_planner(enable_hashjoin=False, enable_nestloop=False),
        }

    def ops(self, seed):
        rng = self.rng(seed, "keys")
        customers = round(tpcr.CUSTOMER_BASE * self.scale)
        big = [
            Op("Q2", queries.Q2, "Q2", restart=True),
            Op("Q4", queries.Q4, "Q4", restart=True),
            Op("sort", _SORT_SQL, "sort", restart=True),
            Op("group", _GROUP_SQL, "group", restart=True),
            Op("smj", _SMJ_SQL, "smj", db="smj", restart=True),
        ]
        lookups = []
        for i in range(self.lookups):
            key = rng.randint(1, customers)
            if i % 2:
                sql = f"select * from customer where custkey = {key}"
            else:
                sql = f"select orderkey, totalprice from orders where custkey = {key}"
            lookups.append(Op(f"c{i:02d}", sql, "cold_lookup", restart=True))
        # A big statement after every fifth lookup, the same for every seed.
        ops = []
        while big or lookups:
            ops.extend(lookups[:5])
            del lookups[:5]
            if big:
                ops.append(big.pop(0))
        return ops


# ----------------------------------------------------------------------
# service_flood

MAX_INFLIGHT = 64
TENANTS = (("bronze", 1.0), ("silver", 2.0), ("gold", 4.0))

_LIGHT = (
    ("scan_customer", "select * from customer"),
    (
        "join2",
        "select c.custkey, o.totalprice from customer c, orders o "
        "where c.custkey = o.custkey",
    ),
)
_HEAVY = (
    "join3",
    "select c.custkey, o.totalprice, l.extendedprice "
    "from customer c, orders o, lineitem l "
    "where c.custkey = o.custkey and o.orderkey = l.orderkey",
)


def _spread(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced values covering [lo, hi]."""
    if n == 1:
        return [(lo + hi) / 2]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class ServiceFlood(Workload):
    name = "service_flood"
    why = (
        "open-loop burst of 400 submits through db.service() under "
        "seeded chaos: sched, service and fault do work nothing else "
        "exercises (admission queue, >1k slices, shedding; 1/3 miss "
        "deadlines by design)"
    )
    closed_loop = False
    scale = 0.002
    subset_rows = 60
    probe_count = 3
    #: Submissions per flood.
    size = 400

    def configs(self):
        return {
            "main": SystemConfig(
                work_mem_pages=8, buffer_pool_pages=24
            ).with_service(
                max_inflight=MAX_INFLIGHT,
                admission_queue_limit=2 * self.size,
                shedding=True,
                policy_interval=2.0,
                deprioritize_after=1,
                shed_after=2,
            )
        }

    def fault_plan(self, seed: int) -> FaultPlan:
        """The chaos plan of ``bench_saturation.py`` - faults perturb timing
        and force retries, every query stays completable - with the
        transient rates raised from 0.8 % / 0.4 % to 10 %: a flood charges
        only ~60 page I/Os (its working set fits the pool), so at the
        original rates no fault would ever fire."""
        return FaultPlan(
            seed=self.rng(seed, "faults").randrange(1, 2**31),
            transient_read_rate=0.1,
            transient_write_rate=0.1,
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

    def ops(self, seed):
        # The deadline *values* are a fixed grid, the seed only permutes
        # which submission gets which: every seed floods the service with
        # the same deadline distribution.
        heavy_n = len(range(0, self.size, 3))
        rng = self.rng(seed, "deadlines")
        heavy_deadlines = _spread(40.0, 90.0, heavy_n)
        light_deadlines = _spread(80.0, 250.0, self.size - heavy_n)
        rng.shuffle(heavy_deadlines)
        rng.shuffle(light_deadlines)
        ops = []
        lights = 0
        for i in range(self.size):
            if i % 3 == 0:
                template, sql = _HEAVY
                timeout = heavy_deadlines.pop()
            else:
                template, sql = _LIGHT[lights % len(_LIGHT)]
                timeout = light_deadlines.pop()
                lights += 1
            ops.append(
                Op(
                    name=f"s{i:03d}",
                    sql=sql,
                    template=template,
                    # Round-robin: the heavy joins (every third op) all
                    # land on the lowest-weight tenant, which is what makes
                    # them the ones that miss their deadlines.
                    tenant=TENANTS[i % len(TENANTS)][0],
                    timeout=timeout,
                )
            )
        return ops

    def setup_ops(self, seed):
        """One solo execution of each distinct statement (a 400-op flood
        per set-up repetition would cost more than the timed phase)."""
        return self.probe_ops(seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperSolo(), PointLookups(), ColdSpill(), ServiceFlood())
}
