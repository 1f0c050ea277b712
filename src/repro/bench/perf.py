"""Plan-once and compile-once guards.

Real (wall-clock) time is measured in one place, ``benchmarks/e2e/``
(``executor.row_engine_ratio``, ``executor.compile_us``).  What stays
here are the two properties that benchmark does not check: every statement
of a plan shape must reuse one cached program, and every submission of one
text must reuse one cached plan until ``analyze()`` changes what it read.
CI gates both through ``python -m repro.bench shapecheck``, once more under
``REPRO_VERIFY=strict`` so every program hit also regenerates and compares
its text and every plan hit is planned afresh and compared.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.config import SystemConfig
from repro.database import Database
from repro.workloads import tpcr

#: Statement templates of :func:`shape_counts`.  Each yields one plan shape
#: for every ``n`` of the loop (the literals stay where the optimizer's
#: choice cannot flip); between them they cover what a program must be
#: keyed on and bound to without its value — predicate and projection
#: literals, LIMIT, the ``id()``-named partition files of a multi-batch hash
#: join (work_mem is one page), scalar function and LIKE pattern — and the
#: short shapes ``benchmarks/e2e`` runs: ``count(*)`` over a filtered scan,
#: an index range (its bounds are bound, not keyed; the low end of the key
#: domain keeps the index plan), an external sort, a negated literal.
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
    "count_filtered": "select count(*) from customer_subset1 where nationkey < {n}",
    "index_between": (
        "select orderkey, totalprice from orders where custkey between -{n} and 2"
    ),
    "external_sort": (
        "select custkey, acctbal from customer where acctbal > {n}.5 order by acctbal"
    ),
    "negative_literal": "select custkey, acctbal from customer where acctbal > -{n}.5",
}


def shape_database() -> Database:
    """The small database the guards run on (one page of work_mem)."""
    return tpcr.build_database(
        scale=0.002,
        subset_rows=60,
        config=SystemConfig(work_mem_pages=1),
        with_indexes=True,
    )


def shape_counts(
    statements: int = 50, db: Optional[Database] = None
) -> Iterator[tuple[str, str, int, int]]:
    """``(template, mode, compiles, hits)`` of ``statements`` same-shape
    queries per template, plain then monitored, on one small database."""
    from repro.executor import fused

    db = db if db is not None else shape_database()
    session = db.connect()
    for name, template in SHAPE_TEMPLATES.items():
        for monitor in (False, True):
            before = fused.code_cache_info()
            for n in range(1, statements + 1):
                session.submit(
                    template.format(n=n),
                    name=f"shape-{name}-{monitor}-{n}",
                    monitor=monitor,
                    keep_rows=False,
                ).result()
            after = fused.code_cache_info()
            yield (
                name,
                "monitored" if monitor else "plain",
                after.misses - before.misses,
                after.hits - before.hits,
            )


def check_shape_compiles(statements: int = 50) -> list[str]:
    """Report every (template, mode) that compiled its fused program more
    than once: a per-query value is in the plan-shape key.  That is
    otherwise silent — the query still runs, it just pays the compiler and
    Python's ``compile`` (a quarter of a short query) on every execution.
    """
    return [
        f"{name} [{mode}]: {compiles} compiles for {statements} same-shape "
        f"statements (a per-query value is in the plan-shape key)"
        for name, mode, compiles, _hits in shape_counts(statements)
        if compiles > 1
    ]


def statement_counts(
    statements: int = 50, db: Optional[Database] = None
) -> Iterator[tuple[str, int, int]]:
    """``(template, plans, plans after analyze())``: ``statements``
    submissions of one text per template, then ``db.analyze()`` and as
    many again.  One text is planned once, and once more after ANALYZE
    gave its tables new statistics.  (The text's literal is one
    :func:`shape_counts` did not submit.)"""
    db = db if db is not None else shape_database()
    session = db.connect()
    for name, template in SHAPE_TEMPLATES.items():
        sql = template.format(n=statements + 1)
        plans = []
        for _round in range(2):
            before = db.cache_info().statements.misses
            for n in range(statements):
                session.submit(
                    sql, monitor=n % 2 == 0, keep_rows=False
                ).result()
            plans.append(db.cache_info().statements.misses - before)
            db.analyze()
        yield name, plans[0], plans[1]
