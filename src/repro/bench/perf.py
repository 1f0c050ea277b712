"""Compile-once guard for the fused batch engine.

Real (wall-clock) time is measured in one place, ``benchmarks/e2e/``
(``executor.row_engine_ratio``, ``executor.compile_us``).  What stays
here is the one property that benchmark does not check: every statement
of a plan shape must reuse one cached code object.  CI gates it through
``python -m repro.bench shapecheck``.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.workloads import tpcr

#: Statement templates of :func:`check_shape_compiles`.  Each yields one
#: plan shape for every ``n`` of the loop (the literals stay in a narrow
#: range so the optimizer's choice cannot flip); between them they cover
#: the places a run-time value once leaked into generated source —
#: predicate and projection literals, LIMIT, the ``id()``-named
#: partition files of a multi-batch hash join (work_mem is one page), and
#: the scalar function and LIKE pattern the compiler binds inline.
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
    "function_like_join": (
        "select c.name, o.orderkey from customer c, orders o "
        "where c.custkey = o.custkey and absolute(o.totalprice) > {n}.0 "
        "and c.name like 'Customer%{n}'"
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
