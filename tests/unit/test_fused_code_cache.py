"""The fused engine compiles each plan *shape* once.

``FusedQuery.source`` must be a pure function of plan shape, config and
monitored mode: SQL literals and ``id()``-derived temp-file names
are ``env`` bindings, never text.  Python's ``compile`` then runs once
per distinct text (``fused.code_cache_info()`` counts it), and anything a
program *is* specialized on must change the text.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis.invariants import collect_nodes
from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.executor import fused
from repro.executor.base import PULSE, ExecContext
from repro.expr.bound import ComparisonExpr, LiteralExpr
from repro.planner.physical import HashJoinNode
from repro.workloads import tpcr

JOIN_SQL = (
    "select c.custkey, o.orderkey from customer c, orders o "
    "where c.custkey = o.custkey and o.totalprice > {price}"
)


def build(config: SystemConfig | None = None, **kwargs):
    return tpcr.build_database(scale=0.002, subset_rows=60, config=config, **kwargs)


@pytest.fixture(scope="module")
def db():
    return build(with_indexes=True)


@pytest.fixture(scope="module")
def spill_db():
    """One page of work_mem: every hash join is partitioned."""
    return build(SystemConfig(work_mem_pages=1))


def compile_sql(db, sql_or_planned, monitored=False):
    planned = db.prepare(sql_or_planned) if isinstance(sql_or_planned, str) else sql_or_planned
    tracker = None
    indicator = None
    if monitored:
        indicator = ProgressIndicator(planned, db.clock, db.config)
        tracker = indicator.tracker
    ctx = ExecContext(db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker)
    return fused.FusedQuery(planned.root, ctx), indicator


def run(db, sql_or_planned, monitored=False):
    """Compile and drain one query: (source, rows, was the compile a hit)."""
    before = fused.code_cache_info()
    query, indicator = compile_sql(db, sql_or_planned, monitored)
    after = fused.code_cache_info()
    assert (after.hits - before.hits) + (after.misses - before.misses) == 1
    rows = []
    try:
        for item in query.run():
            if item is not PULSE:
                rows.extend(item.rows())
    finally:
        query.close()
        if indicator is not None:
            indicator.abort()
    return query.source, rows, after.hits > before.hits


class TestLiteralFreeSource:
    @pytest.mark.parametrize(
        "template, first, second",
        [
            ("select c.custkey, c.acctbal from customer c where c.custkey = {}", 17, 42),
            ("select c.custkey from customer c where c.nationkey < {}", 3, 9),
            ("select c.custkey from customer c where c.acctbal > {}", 100.5, 7000.25),
            ("select c.custkey from customer c where c.mktsegment = {}",
             "'BUILDING'", "'MACHINERY'"),
            ("select c.custkey, c.acctbal * {} from customer c", 2, 0.5),
            ("select c.custkey from customer c where c.custkey < 20 limit {}", 3, 7),
        ],
    )
    @pytest.mark.parametrize("monitored", [False, True])
    def test_same_shape_same_text(self, db, template, first, second, monitored):
        fused.code_cache_clear()
        src_a, rows_a, hit_a = run(db, template.format(first), monitored)
        src_b, rows_b, hit_b = run(db, template.format(second), monitored)
        assert src_a == src_b
        assert (hit_a, hit_b) == (False, True)
        assert fused.code_cache_info().currsize == 1
        # ... and each run computed with its own literal.
        assert rows_a != rows_b
        for sql, rows in ((template.format(first), rows_a), (template.format(second), rows_b)):
            assert rows == db.connect().submit(sql, monitor=False).result().rows

    def test_literals_do_not_appear_in_text(self, db):
        source, _rows, _hit = run(
            db,
            "select c.custkey from customer c "
            "where c.custkey = 4242 and c.mktsegment = 'BUILDING' and c.acctbal > 123.75",
        )
        assert "4242" not in source
        assert "BUILDING" not in source
        assert "123.75" not in source

    @pytest.mark.parametrize("monitored", [False, True])
    def test_partitioned_hash_join_planned_twice(self, spill_db, monitored):
        fused.code_cache_clear()
        first = spill_db.prepare(JOIN_SQL.format(price=1000.0))
        second = spill_db.prepare(JOIN_SQL.format(price=250000.0))
        for planned in (first, second):
            assert any(
                isinstance(n, HashJoinNode) and n.num_batches > 1
                for n in collect_nodes(planned.root)
            )
        src_a, rows_a, hit_a = run(spill_db, first, monitored)
        src_b, rows_b, hit_b = run(spill_db, second, monitored)
        assert src_a == src_b
        assert (hit_a, hit_b) == (False, True)
        assert "hj_build_" not in src_a and "hj_probe_" not in src_a
        assert len(rows_a) > len(rows_b) > 0
        assert spill_db.disk.temp_file_count() == 0


class TestSpecializationsStayInTheText:
    SQL = "select c.custkey, c.acctbal from customer c where c.nationkey < 5"

    def test_monitored_differs_from_plain(self, db):
        plain, rows_plain, _ = run(db, self.SQL, monitored=False)
        monitored, rows_monitored, _ = run(db, self.SQL, monitored=True)
        assert plain != monitored
        assert rows_plain == rows_monitored

    def test_batch_rows_is_in_the_text(self):
        one = build(SystemConfig().with_progress(batch_rows=1))
        many = build(SystemConfig().with_progress(batch_rows=256))
        assert run(one, self.SQL)[0] != run(many, self.SQL)[0]

    def test_cost_constants_are_in_the_text(self):
        base = build()
        dearer = build(SystemConfig().with_cost(cpu_tuple=0.0002))
        src_base, rows_base, _ = run(base, self.SQL)
        src_dearer, rows_dearer, _ = run(dearer, self.SQL)
        assert src_base != src_dearer
        assert rows_base == rows_dearer
        assert dearer.clock.cost_charged != base.clock.cost_charged


class TestClosureFallbacks:
    def test_null_literal_stays_inline(self, db):
        """NULL-ness decides which None-checks are emitted, so it is shape."""
        fused.code_cache_clear()
        null_src, null_rows, _ = run(
            db, "select c.custkey from customer c where c.nationkey = null"
        )
        int_src, int_rows, _ = run(
            db, "select c.custkey from customer c where c.nationkey = 3"
        )
        assert null_rows == [] and int_rows
        assert null_src != int_src
        assert ":= None) is not None" in null_src
        assert fused.code_cache_info().misses == 2

    def test_unsafe_literal_type_keeps_its_closure(self, db):
        sql = "select c.custkey from customer c where c.nationkey = 3"
        _src, want, _ = run(db, sql)
        planned = db.prepare(sql)
        literals = [
            f.right
            for n in collect_nodes(planned.root)
            for f in getattr(n, "filters", ())
            if isinstance(f, ComparisonExpr) and isinstance(f.right, LiteralExpr)
        ]
        assert len(literals) == 1
        literals[0].value = Fraction(3)  # not a _SAFE_LITERALS type
        source, rows, _ = run(db, planned)
        assert rows == want
        # The predicate is a bound compile_predicate closure called per row.
        assert "if not p" in source and "_g_p" in source
        assert "_g_k" not in source


class TestBound:
    def test_overflow_evicts_and_recompiles(self, db):
        fused.code_cache_clear()
        maxsize = fused.code_cache_info().maxsize
        assert 0 < maxsize <= 1024  # a fixed, small bound
        sql = "select c.custkey from customer c where c.custkey = 17"
        source, want, hit = run(db, sql)
        assert not hit
        # Distinct texts (comments never reach a real program) fill the cache.
        for i in range(maxsize):
            fused._compiled(f"{source}# filler {i}\n")
        info = fused.code_cache_info()
        assert info.currsize == maxsize
        again, rows, hit = run(db, sql)
        assert again == source and rows == want
        assert not hit  # evicted, compiled again
        assert fused.code_cache_info().currsize == maxsize
        assert run(db, sql)[2]  # and cached again
