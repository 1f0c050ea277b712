"""Engine performance suite: row engine vs. fused batch engine.

Every other bench in this repository measures *virtual* time — the
simulated clock the progress indicator reasons about.  This module
measures *real* (wall-clock) time, because the batch engine's entire
reason to exist is real-time overhead: both engines charge bit-identical
virtual costs, produce bit-identical rows and ProgressLogs, and differ
only in how many Python-level operations each output row costs.

The suite is a registry of :class:`PerfCase` workloads.  Each case runs
under both engines on identically-built databases (same scale, same
seed), timed with ``time.perf_counter`` over several runs; the *median*
per-engine real time is the recorded number (medians because CI machines
and laptops alike suffer multi-10% load noise — never trust one run).

Three targets, checked by :func:`check_suite` and gated in CI through
``python -m repro.bench perfcheck``:

* suite-wide geometric-mean speedup (batch over row) of at least
  :data:`GEOMEAN_FLOOR`;
* at least :data:`SCAN_FLOOR` on every case marked ``scan_dominated``
  (wide scans and filters, where per-row interpreter overhead dominates);
* no case where the batch engine is *slower* than the row engine by more
  than :data:`REGRESSION_BUDGET`.

The committed reference numbers live in
``benchmarks/results/perf_baseline.json`` (rendered to human form in
``benchmarks/PERF_SHEET.md``); ``perfcheck`` re-times the suite and
compares against that baseline within a noise tolerance.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import SystemConfig
from repro.workloads import queries, tpcr

#: Schema tag of the machine-readable baseline document.
PERF_SCHEMA = "repro.bench.perf/1"

#: TPC-R scale factor the suite times at (~60k lineitem rows).
DEFAULT_SCALE = 0.01

#: Timed runs per (case, engine); the median is recorded.  One untimed
#: warm-up run precedes these (buffer-pool warm-up and, for the batch
#: engine, the one-off compile of the generated program, cached per shape).
DEFAULT_RUNS = 5

#: Required suite-wide geometric-mean speedup of batch over row.
GEOMEAN_FLOOR = 3.0

#: Required speedup on every ``scan_dominated`` case.
SCAN_FLOOR = 5.0

#: Maximum tolerated per-case slowdown of batch relative to row (0.10 =
#: the batch engine may never be more than 10% slower on any case).
REGRESSION_BUDGET = 0.10

#: Default fractional tolerance ``perfcheck`` grants fresh timings
#: relative to the committed baseline (real-time noise, not semantics).
DEFAULT_TOLERANCE = 0.35

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
BASELINE_PATH = _REPO_ROOT / "benchmarks" / "results" / "perf_baseline.json"
SHEET_PATH = _REPO_ROOT / "benchmarks" / "PERF_SHEET.md"


@dataclass(frozen=True)
class PerfCase:
    """One suite workload, run identically under both engines."""

    name: str
    sql: str
    #: Wide-scan / filter-dominated cases held to :data:`SCAN_FLOOR`.
    scan_dominated: bool = False
    #: Attach a full progress indicator (shows both engines pay the same
    #: accounting cost, not just that bare pipelines got faster).
    monitor: bool = False


#: The registry.  Names are stable — the committed baseline keys on them.
PERF_CASES: tuple[PerfCase, ...] = (
    # Wide scans: the row engine rebuilds every 16-column tuple through a
    # generator expression per operator; the fused engine elides identity
    # projections entirely.  Held to the SCAN_FLOOR bar.
    PerfCase("scan_wide", queries.Q1, scan_dominated=True),
    PerfCase(
        "scan_wide_filter",
        "select * from lineitem where quantity > 25.0",
        scan_dominated=True,
    ),
    PerfCase(
        "scan_expr_filter",
        "select orderkey from lineitem "
        "where extendedprice * (1.0 - discount) > 1500.0",
        scan_dominated=True,
    ),
    # Narrow projections and aggregates: per-row work the fused engine
    # must still do (tuple building, hash grouping) caps the ratio lower.
    PerfCase("project_narrow", "select orderkey, quantity from lineitem"),
    PerfCase(
        "filter_count",
        "select count(*) from lineitem where quantity > 25.0",
    ),
    PerfCase(
        "agg_group",
        "select returnflag, count(*), sum(quantity) from lineitem "
        "group by returnflag",
    ),
    # Monitored paper queries: full indicator attached, so the identical
    # per-row tracker accounting both engines pay compresses the ratio.
    PerfCase("q1_monitored", queries.Q1, monitor=True),
    PerfCase("q5_monitored", queries.Q5, monitor=True),
)


def cases_by_name() -> dict[str, PerfCase]:
    return {c.name: c for c in PERF_CASES}


def select_cases(names: Optional[Sequence[str]]) -> list[PerfCase]:
    """Resolve ``--cases`` selectors against the registry."""
    if not names:
        return list(PERF_CASES)
    registry = cases_by_name()
    unknown = [n for n in names if n not in registry]
    if unknown:
        known = ", ".join(registry)
        raise ValueError(f"unknown perf case(s) {unknown}; known: {known}")
    return [registry[n] for n in names]


@dataclass(frozen=True)
class CaseResult:
    """Median real time of one case under both engines."""

    name: str
    scan_dominated: bool
    monitor: bool
    row_s: float
    batch_s: float

    @property
    def speedup(self) -> float:
        return self.row_s / self.batch_s


@dataclass(frozen=True)
class SuiteResult:
    """One full timing sweep of the suite."""

    scale: float
    runs: int
    cases: tuple[CaseResult, ...]

    @property
    def geomean_speedup(self) -> float:
        logs = [math.log(c.speedup) for c in self.cases]
        return math.exp(sum(logs) / len(logs))

    def case(self, name: str) -> Optional[CaseResult]:
        for c in self.cases:
            if c.name == name:
                return c
        return None


def _time_case(db, case: PerfCase, engine: str, runs: int) -> float:
    """Median real seconds of ``runs`` executions (after one warm-up)."""
    samples = []
    for i in range(runs + 1):
        t0 = time.perf_counter()
        db.connect().submit(
            case.sql,
            name=f"perf-{case.name}-{engine}-{i}",
            monitor=case.monitor,
            keep_rows=False,
        ).result()
        if i > 0:  # run 0 is the warm-up
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_suite(
    cases: Optional[Sequence[PerfCase]] = None,
    scale: float = DEFAULT_SCALE,
    runs: int = DEFAULT_RUNS,
    progress=None,
) -> SuiteResult:
    """Time every case under both engines; one database per engine."""
    cases = list(cases) if cases is not None else list(PERF_CASES)
    timings: dict[tuple[str, str], float] = {}
    for engine in ("row", "batch"):
        config = SystemConfig().with_progress(engine=engine)
        db = tpcr.build_database(scale=scale, config=config)
        for case in cases:
            if progress is not None:
                progress(f"timing {case.name} [{engine}] ...")
            timings[(engine, case.name)] = _time_case(db, case, engine, runs)
    results = tuple(
        CaseResult(
            name=c.name,
            scan_dominated=c.scan_dominated,
            monitor=c.monitor,
            row_s=timings[("row", c.name)],
            batch_s=timings[("batch", c.name)],
        )
        for c in cases
    )
    return SuiteResult(scale=scale, runs=runs, cases=results)


# ----------------------------------------------------------------------
# compile-once check

#: Statement templates of :func:`check_shape_compiles`.  Each yields one
#: plan shape for every ``n`` of the loop (the literals stay in a narrow
#: range so the optimizer's choice cannot flip); between them they cover
#: the places a run-time value once leaked into generated source —
#: predicate and projection literals, LIMIT, and the ``id()``-named
#: partition files of a multi-batch hash join (work_mem is one page).
SHAPE_TEMPLATES: dict[str, str] = {
    "index_lookup": "select custkey, acctbal from customer where custkey = {n}",
    "scan_filter": (
        "select custkey, acctbal * {n}.5 from customer "
        "where acctbal > {n}.25 and mktsegment <> 'SEG{n}' limit {n}"
    ),
    "hash_join_spill": (
        "select c.custkey, o.orderkey from customer c, orders o "
        "where c.custkey = o.custkey and o.totalprice > {n}.0"
    ),
}


def check_shape_compiles(statements: int = 50) -> list[str]:
    """Run ``statements`` same-shape queries per (template, mode); report
    every pair that compiled its fused program more than once.

    A literal or ``id()`` formatted into generated source is otherwise
    silent: the query still runs, it just pays Python's ``compile`` on
    every execution (about half of a short query's real time).
    """
    from repro.executor import fused

    config = SystemConfig(work_mem_pages=1)
    db = tpcr.build_database(
        scale=0.002, subset_rows=60, config=config, with_indexes=True
    )
    session = db.connect()
    problems = []
    for name, template in SHAPE_TEMPLATES.items():
        for monitor in (False, True):
            before = fused.code_cache_info().misses
            for n in range(1, statements + 1):
                session.submit(
                    template.format(n=n),
                    name=f"shape-{name}-{monitor}-{n}",
                    monitor=monitor,
                    keep_rows=False,
                ).result()
            compiles = fused.code_cache_info().misses - before
            if compiles > 1:
                mode = "monitored" if monitor else "plain"
                problems.append(
                    f"{name} [{mode}]: {compiles} compiles for {statements} "
                    f"same-shape statements (a run-time value is in the "
                    f"generated source)"
                )
    return problems


# ----------------------------------------------------------------------
# target + baseline checks


def check_suite(suite: SuiteResult) -> list[str]:
    """Violations of the suite's absolute targets (empty = all met)."""
    problems = []
    if suite.geomean_speedup < GEOMEAN_FLOOR:
        problems.append(
            f"suite geomean speedup {suite.geomean_speedup:.2f}x is below "
            f"the {GEOMEAN_FLOOR:.1f}x floor"
        )
    for c in suite.cases:
        if c.scan_dominated and c.speedup < SCAN_FLOOR:
            problems.append(
                f"scan-dominated case {c.name}: {c.speedup:.2f}x is below "
                f"the {SCAN_FLOOR:.1f}x floor"
            )
        if c.batch_s > c.row_s * (1.0 + REGRESSION_BUDGET):
            problems.append(
                f"case {c.name}: batch engine is slower than row by more "
                f"than {REGRESSION_BUDGET:.0%} "
                f"({c.batch_s * 1e3:.1f}ms vs {c.row_s * 1e3:.1f}ms)"
            )
    return problems


def compare_to_baseline(
    fresh: SuiteResult,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Violations of the fresh run against the committed baseline.

    Real-time numbers are noisy, so the comparison is on *speedups* (the
    row engine times on the same machine cancel out machine speed) with a
    fractional ``tolerance``.  Only cases present in both the fresh run
    and the baseline are compared, so ``--cases`` smoke subsets work.
    """
    problems = []
    base_cases = {c["name"]: c for c in baseline.get("cases", [])}
    compared = []
    for c in fresh.cases:
        base = base_cases.get(c.name)
        if base is None:
            problems.append(f"case {c.name} missing from the baseline")
            continue
        compared.append(c)
        floor = base["speedup"] * (1.0 - tolerance)
        if c.speedup < floor:
            problems.append(
                f"case {c.name}: fresh speedup {c.speedup:.2f}x fell below "
                f"baseline {base['speedup']:.2f}x - {tolerance:.0%} "
                f"tolerance ({floor:.2f}x)"
            )
    if compared:
        logs = [math.log(c.speedup) for c in compared]
        fresh_geo = math.exp(sum(logs) / len(logs))
        logs = [math.log(base_cases[c.name]["speedup"]) for c in compared]
        base_geo = math.exp(sum(logs) / len(logs))
        floor = base_geo * (1.0 - tolerance)
        if fresh_geo < floor:
            problems.append(
                f"geomean speedup over compared cases {fresh_geo:.2f}x fell "
                f"below baseline {base_geo:.2f}x - {tolerance:.0%} "
                f"tolerance ({floor:.2f}x)"
            )
    return problems


# ----------------------------------------------------------------------
# serialization


def suite_to_doc(suite: SuiteResult) -> dict:
    """The machine-readable baseline document for ``suite``."""
    return {
        "schema": PERF_SCHEMA,
        "scale": suite.scale,
        "runs": suite.runs,
        "targets": {
            "geomean_floor": GEOMEAN_FLOOR,
            "scan_floor": SCAN_FLOOR,
            "regression_budget": REGRESSION_BUDGET,
        },
        "geomean_speedup": round(suite.geomean_speedup, 4),
        "cases": [
            {
                "name": c.name,
                "scan_dominated": c.scan_dominated,
                "monitor": c.monitor,
                "row_s": round(c.row_s, 6),
                "batch_s": round(c.batch_s, 6),
                "speedup": round(c.speedup, 4),
            }
            for c in suite.cases
        ],
    }


def load_baseline(path: Optional[pathlib.Path] = None) -> dict:
    path = path or BASELINE_PATH
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != PERF_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {PERF_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    return doc


def write_baseline(suite: SuiteResult, path: Optional[pathlib.Path] = None):
    path = path or BASELINE_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(suite_to_doc(suite), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# rendering


def render_suite(suite: SuiteResult) -> str:
    """The plain-text timing table ``python -m repro.bench perf`` prints."""
    lines = [
        f"{'case':<18} {'row (ms)':>10} {'batch (ms)':>11} "
        f"{'speedup':>8}  flags",
        "-" * 62,
    ]
    for c in suite.cases:
        flags = []
        if c.scan_dominated:
            flags.append("scan")
        if c.monitor:
            flags.append("monitored")
        lines.append(
            f"{c.name:<18} {c.row_s * 1e3:>10.1f} {c.batch_s * 1e3:>11.1f} "
            f"{c.speedup:>7.2f}x  {','.join(flags)}"
        )
    lines.append("-" * 62)
    lines.append(
        f"geomean speedup {suite.geomean_speedup:.2f}x "
        f"(scale {suite.scale}, median of {suite.runs} runs)"
    )
    return "\n".join(lines)


def render_sheet(suite: SuiteResult) -> str:
    """The human-readable ``benchmarks/PERF_SHEET.md``."""
    rows = []
    for c in suite.cases:
        flags = "scan-dominated" if c.scan_dominated else ""
        if c.monitor:
            flags = (flags + ", monitored").lstrip(", ")
        rows.append(
            f"| {c.name} | {c.row_s * 1e3:.1f} | {c.batch_s * 1e3:.1f} "
            f"| **{c.speedup:.2f}x** | {flags} |"
        )
    scan_cases = [c for c in suite.cases if c.scan_dominated]
    scan_min = min(c.speedup for c in scan_cases) if scan_cases else None
    scan_line = (
        f"* **≥{SCAN_FLOOR:.0f}x on every scan/filter-dominated case** — "
        f"met (minimum {scan_min:.2f}x)."
        if scan_min is not None and scan_min >= SCAN_FLOOR
        else f"* **≥{SCAN_FLOOR:.0f}x on every scan/filter-dominated case**."
    )
    return f"""# Engine performance sheet: row vs. fused batch engine

Real (wall-clock) execution time of the perf suite
(`src/repro/bench/perf.py`) under both executor engines.  Both engines
produce **bit-identical results** — same rows in the same order, same
ProgressLog, same virtual-clock charge sequence (see
`docs/architecture.md`); only real time differs, which is the entire
point of the batch engine.

## Method

* TPC-R scale {suite.scale} (~60k `lineitem` rows), one database build
  per engine, identical seeds.
* Per case and engine: one untimed warm-up run (buffer-pool warm-up and
  Python's one-off compile of the batch engine's generated program — the
  code object is cached per plan shape, so timed runs pay only source
  generation and `exec` of the cached code), then {suite.runs} timed runs;
  the **median** real time is recorded.  Medians because single runs on
  shared machines carry multi-10% load noise.
* `monitored` cases attach the full progress indicator; both engines pay
  the identical per-row accounting, which compresses their ratio — that
  compression is itself a result (batching does not cheat on accounting).

## Results

| case | row (ms) | batch (ms) | speedup | notes |
|---|---:|---:|---:|---|
{chr(10).join(rows)}

**Suite geometric-mean speedup: {suite.geomean_speedup:.2f}x**

## Targets

* **≥{GEOMEAN_FLOOR:.0f}x suite geomean** — met
  ({suite.geomean_speedup:.2f}x).
{scan_line}
* **Zero regression budget**: no case may run more than
  {REGRESSION_BUDGET:.0%} slower under the batch engine — met (every
  case is faster).

## Regenerating

```sh
PYTHONPATH=src python -m repro.bench perf --write-baseline
```

rewrites `benchmarks/results/perf_baseline.json` (the machine-readable
form of this table) and this sheet.  CI re-times a smoke subset on every
PR and gates with

```sh
PYTHONPATH=src python -m repro.bench perfcheck --tolerance {DEFAULT_TOLERANCE}
```

which compares fresh *speedups* (not absolute times — machine speed
cancels out of the row/batch ratio) against the committed baseline.
"""
