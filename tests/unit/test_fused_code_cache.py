"""The fused engine compiles each plan *shape* once.

``FusedQuery`` looks its program up under a plan-shape key
(``fused._plan_key``): values the emitters read off the plan, the frozen
config, monitored or plain — never a literal, an estimate, an ``id()`` or
an object of a database.  A hit runs no emitter and binds the query's own
objects by the program's binding list; anything a program *is*
specialized on must change the key, and every key component has a mutant
here that a named test kills.
"""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest

from repro.analysis.invariants import collect_nodes
from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.database import Database
from repro.errors import ExecutionError
from repro.executor import fused, runtime
from repro.executor.base import PULSE, ExecContext
from repro.expr.bound import ColumnExpr, ComparisonExpr, LiteralExpr
from repro.planner.optimizer import Optimizer
from repro.planner.physical import (
    DistinctNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    SeqScanNode,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string
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


def private_plan(db, sql):
    """A plan of ``sql`` that no statement cache holds, for a test that
    edits it (a prepared plan is shared by every later prepare of its text)."""
    return Optimizer(db.config).plan(Binder(db.catalog).bind(parse_select(sql)))


def context(db, planned, monitored):
    indicator = ProgressIndicator(planned, db.clock, db.config) if monitored else None
    tracker = indicator.tracker if monitored else None
    ctx = ExecContext(db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker)
    return ctx, indicator


def run(db, sql_or_planned, monitored=False):
    """Bind and drain one query: (source, rows, was the lookup a hit).

    Text is planned privately: a prepared plan is segmented, and segment
    annotations, which are in the key, would keep apart the same-shape
    plans some mutants below must make collide."""
    planned = (
        private_plan(db, sql_or_planned)
        if isinstance(sql_or_planned, str) else sql_or_planned
    )
    ctx, indicator = context(db, planned, monitored)
    before = fused.code_cache_info()
    query = fused.FusedQuery(planned.root, ctx)
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


def fat_pair(rows=500, pad=1400):
    """A row-engine and a batch-engine database with one fat-row indexed
    table (5 rows a page: the index beats the scan), built alike."""
    pair = []
    for engine in ("row", "batch"):
        db = Database(SystemConfig().with_progress(engine=engine))
        schema = Schema([Column("k", INTEGER), Column("pad", string(pad))])
        db.create_table("fat", schema, [(i, "x" * pad) for i in range(rows)])
        db.analyze()
        db.create_index("fat", "k")
        pair.append(db)
    return pair


def grow(db, start, stop):
    table = db.catalog.get_table("fat")
    table.heap.bulk_load((i, "x" * 1400) for i in range(start, stop))
    for index in table.indexes.values():
        index._build()
    db.analyze()


def both(pair, sql, monitor=False):
    """Run on the row and the batch database; they must agree exactly."""
    row_db, batch_db = pair
    results = [d.connect().submit(sql, monitor=monitor).result() for d in pair]
    assert results[1].rows == results[0].rows
    assert batch_db.clock.now == row_db.clock.now
    assert batch_db.clock.cost_charged == row_db.clock.cost_charged
    return results[1].rows


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
            ("select c.custkey from customer c where c.acctbal > {}", -5.5, -900.25),
            ("select o.orderkey from orders o where o.custkey between {} and 2", 1, 2),
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


class TestSpecializationsAreInTheKey:
    SQL = "select c.custkey, c.acctbal from customer c where c.nationkey < 5"

    def test_monitored_differs_from_plain(self, db):
        fused.code_cache_clear()
        planned = db.prepare(self.SQL)  # annotated once, then run both ways
        monitored, rows_monitored, _ = run(db, planned, monitored=True)
        plain, rows_plain, hit = run(db, planned, monitored=False)
        assert not hit and plain != monitored
        assert "def _sync():" in monitored and "def _sync():" not in plain
        assert rows_plain == rows_monitored

    def test_batch_rows_is_in_the_key(self):
        fused.code_cache_clear()
        one = build(SystemConfig().with_progress(batch_rows=1))
        many = build(SystemConfig().with_progress(batch_rows=256))
        assert run(one, self.SQL)[0] != run(many, self.SQL)[0]

    def test_cost_constants_are_in_the_key(self):
        fused.code_cache_clear()
        base = build()
        dearer = build(SystemConfig().with_cost(cpu_tuple=0.0002))
        src_base, rows_base, _ = run(base, self.SQL)
        src_dearer, rows_dearer, hit = run(dearer, self.SQL)
        assert not hit and src_base != src_dearer
        assert rows_base == rows_dearer
        assert dearer.clock.cost_charged != base.clock.cost_charged

    def test_equal_configs_share_a_program(self):
        """The config is keyed by value: a second database built alike hits."""
        fused.code_cache_clear()
        assert not run(build(), self.SQL)[2]
        assert run(build(), self.SQL)[2]

    def test_num_batches_is_in_the_key(self, db):
        fused.code_cache_clear()
        planned = private_plan(db, JOIN_SQL.format(price=1000.0))
        (join,) = [n for n in collect_nodes(planned.root) if isinstance(n, HashJoinNode)]
        assert join.num_batches == 1
        memory, want, _ = run(db, planned)
        join.num_batches = 3
        spilled, rows, hit = run(db, planned)
        assert not hit
        assert "_g_mkparts" in spilled and "_g_mkparts" not in memory
        assert sorted(rows) == sorted(want)
        assert db.disk.temp_file_count() == 0

    def test_plan_classes_and_tree_shape_are_in_the_key(self, db):
        fused.code_cache_clear()
        scan = "select c.custkey, c.acctbal from customer c"
        sort = scan + " order by c.acctbal"
        limit = scan + " limit 1000"
        outcomes = [run(db, sql) for sql in (scan, sort, limit)]
        assert [hit for _s, _r, hit in outcomes] == [False] * 3
        assert len({source for source, _r, _h in outcomes}) == 3
        assert outcomes[1][1] == sorted(outcomes[0][1], key=lambda r: r[1])
        assert outcomes[2][1] == outcomes[0][1]
        # Two plans that differ in one node's class and in nothing else.
        planned = private_plan(db, "select distinct c.nationkey from customer c")
        assert isinstance(planned.root, DistinctNode)
        _source, distinct, _hit = run(db, planned)
        planned.root = FilterNode(planned.root.child, [], planned.root.est_rows)
        _source, unfiltered, hit = run(db, planned)
        assert not hit and len(unfiltered) > len(distinct) == len(set(unfiltered))

    def test_columns_are_in_the_key(self, db):
        """Two plans that differ in a node's column list only (swapped by
        hand: the optimizer would also move a coordinate elsewhere)."""
        fused.code_cache_clear()
        sql = "select c.custkey, c.nationkey from customer c"
        first, want, _ = run(db, sql)
        planned = private_plan(db, sql)
        (scan,) = [n for n in collect_nodes(planned.root) if isinstance(n, SeqScanNode)]
        scan.columns.reverse()
        second, rows, hit = run(db, planned)
        assert not hit and first != second
        assert rows == want

    def test_expression_structure_is_in_the_key(self, db):
        fused.code_cache_clear()
        less = "select c.custkey, c.nationkey from customer c where c.nationkey < 5"
        more = "select c.custkey, c.nationkey from customer c where c.nationkey > 5"
        other = "select c.custkey, c.nationkey from customer c where c.custkey > 5"
        outcomes = [run(db, sql) for sql in (less, more, other)]
        assert [hit for _s, _r, hit in outcomes] == [False] * 3
        for sql, (_source, rows, _hit) in zip((less, more, other), outcomes):
            assert rows == db.connect().submit(sql, monitor=False).result().rows

    def test_inclusive_flags_are_in_the_key(self):
        fused.code_cache_clear()
        pair = fat_pair()
        for low, high, want in (
            (">", "<=", [6, 7, 8, 9]),
            (">=", "<=", [5, 6, 7, 8, 9]),  # differs in the low flag only
            (">", "<", [6, 7, 8]),  # ... in the high flag only
        ):
            sql = f"select k from fat where k {low} 5 and k {high} 9"
            assert isinstance(pair[1].prepare(sql).root.children[0], IndexScanNode)
            assert both(pair, sql) == [(k,) for k in want]
        assert fused.code_cache_info().misses == 3


class TestCatalogFactsChange:
    """A mutable fact the text interpolates gives a new key: there is no
    invalidation protocol, the old entry is simply not met again."""

    @pytest.mark.parametrize("monitor", [False, True])
    def test_rows_loaded_until_num_pages_changes(self, monitor):
        fused.code_cache_clear()
        pair = fat_pair(rows=40)
        sql = "select k from fat where k * 2 > 10"
        pages = pair[1].catalog.get_table("fat").num_pages
        assert len(both(pair, sql, monitor)) == 34
        assert fused.code_cache_info().misses == 1
        for d in pair:
            grow(d, 40, 60)
        assert pair[1].catalog.get_table("fat").num_pages > pages
        assert len(both(pair, sql, monitor)) == 54  # the new pages are read
        assert fused.code_cache_info().misses == 2

    @pytest.mark.parametrize("monitor", [False, True])
    def test_rows_loaded_until_index_height_changes(self, monitor):
        fused.code_cache_clear()
        pair = fat_pair(rows=500)
        (index,) = pair[1].catalog.get_table("fat").indexes.values()
        assert index.height == 1
        assert isinstance(
            pair[1].prepare("select k from fat where k = 17").root.children[0],
            IndexScanNode,
        )
        assert both(pair, "select k from fat where k = 17", monitor) == [(17,)]
        for d in pair:
            grow(d, 500, 600)
        assert index.height == 2  # one more level to descend and to charge
        assert both(pair, "select k from fat where k = 18", monitor) == [(18,)]
        assert fused.code_cache_info().misses == 2

    def test_index_fanout_is_in_the_key(self):
        fused.code_cache_clear()
        pair = fat_pair(rows=600, pad=7000)  # a row a page, two index levels
        sql = "select k from fat where k >= 10 and k < 50"
        assert isinstance(pair[1].prepare(sql).root.children[0], IndexScanNode)
        assert len(both(pair, sql)) == 40
        for d in pair:
            (index,) = d.catalog.get_table("fat").indexes.values()
            index.fanout = 30  # a leaf read (and a pulse) every 30 entries
            assert index.height == 2
        assert isinstance(pair[1].prepare(sql).root.children[0], IndexScanNode)
        assert len(both(pair, sql)) == 40
        assert fused.code_cache_info().misses == 2


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
        fused.code_cache_clear()
        sql = "select c.custkey from customer c where c.nationkey = 3"
        _src, want, _ = run(db, sql)
        planned = private_plan(db, sql)
        literals = [
            f.right
            for n in collect_nodes(planned.root)
            for f in getattr(n, "filters", ())
            if isinstance(f, ComparisonExpr) and isinstance(f.right, LiteralExpr)
        ]
        assert len(literals) == 1
        literals[0].value = Fraction(3)  # not a _SAFE_LITERALS type
        source, rows, hit = run(db, planned)
        assert not hit and rows == want
        # The predicate is a bound compile_predicate closure called per row.
        assert "if not p" in source and "_g_p" in source
        assert "_g_k" not in source
        # ... made per query from the query's own expression: a hit binds 4.
        literals[0].value = Fraction(4)
        _source, rows, hit = run(db, planned)
        assert hit and rows and rows != want

    def test_an_expression_object_in_two_places_is_not_cached(self, db):
        """One object, two binding sites, one place in the walk: the
        program is right for this plan and wrong for a same-shape plan
        with two objects, so it is compiled and not kept."""
        fused.code_cache_clear()
        sql = "select c.custkey from customer c where c.nationkey > 3 and c.nationkey > 4"
        planned = private_plan(db, sql)
        (scan,) = [n for n in collect_nodes(planned.root) if isinstance(n, SeqScanNode)]
        scan.filters[1] = scan.filters[0]
        _source, rows, hit = run(db, planned)
        assert not hit and fused.code_cache_info().currsize == 0
        assert rows == run(db, "select c.custkey from customer c where c.nationkey > 3")[1]
        assert run(db, sql)[1] == run(db, db.prepare(sql))[1]


class TestAlignmentVerdict:
    SQL = "select c.nationkey, count(*) from customer c group by c.nationkey"

    def test_checked_once_per_program_and_layout(self, db, monkeypatch):
        fused.code_cache_clear()
        calls = []
        real = runtime.check_tracker_alignment
        for module in (runtime, fused):  # the row engine's call, the fused one
            monkeypatch.setattr(
                module, "check_tracker_alignment",
                lambda root, tracker: (calls.append(root), real(root, tracker)),
            )
        session = db.connect()
        for _ in range(3):
            session.submit(self.SQL, monitor=True).result()
        assert len(calls) == 1  # the miss; the two hits reuse its verdict
        session.submit(self.SQL, monitor=False).result()
        assert len(calls) == 1  # nothing to align without a tracker
        row_db = build(SystemConfig().with_progress(engine="row"))
        row_db.connect().submit(self.SQL, monitor=True).result()
        row_db.connect().submit(self.SQL, monitor=True).result()
        assert len(calls) == 3  # the row engine checks every query

    @pytest.mark.parametrize(
        "attr, value", [("segment_id", 99), ("pi_input_ref", (99, 0))]
    )
    def test_a_verdict_does_not_cover_other_annotations(self, db, attr, value):
        """The annotations are in the key: a plan annotated otherwise is
        another program, compiled and checked for itself."""
        fused.code_cache_clear()
        db.connect().submit(self.SQL, monitor=True).result()
        planned = private_plan(db, self.SQL)
        ctx, indicator = context(db, planned, monitored=True)
        (scan,) = [n for n in collect_nodes(planned.root) if isinstance(n, SeqScanNode)]
        setattr(scan, attr, value)
        with pytest.raises(ExecutionError, match="does not match the attached tracker"):
            runtime.run_query(planned, ctx)
        indicator.abort()

    def test_a_verdict_does_not_cover_another_tracker_layout(self, db):
        fused.code_cache_clear()
        db.connect().submit(self.SQL, monitor=True).result()
        planned = private_plan(db, self.SQL)
        other = db.prepare("select c.custkey from customer c")
        indicator = ProgressIndicator(other, db.clock, db.config)  # one segment
        ProgressIndicator(planned, db.clock, db.config).abort()  # re-annotate
        ctx = ExecContext(
            db.clock, db.disk, db.buffer_pool, db.config, tracker=indicator.tracker
        )
        with pytest.raises(ExecutionError, match="does not match the attached tracker"):
            runtime.run_query(planned, ctx)
        indicator.abort()


class TestBound:
    def test_overflow_evicts_and_recompiles(self, db, monkeypatch):
        fused.code_cache_clear()
        monkeypatch.setattr(fused, "_CACHE_SIZE", 3)
        maxsize = fused.code_cache_info().maxsize
        assert maxsize == 3
        sql = "select c.custkey from customer c where c.custkey = 17"
        source, want, hit = run(db, sql)
        assert not hit
        # Distinct shapes fill the cache ...
        for n in range(1, maxsize + 1):
            columns = ", ".join(["c.custkey"] * (n + 1))
            assert not run(db, f"select {columns} from customer c")[2]
        assert fused.code_cache_info().currsize == maxsize
        again, rows, hit = run(db, sql)
        assert again == source and rows == want
        assert not hit  # evicted, compiled again
        assert fused.code_cache_info().currsize == maxsize
        assert run(db, sql)[2]  # and cached again

    def test_the_shipped_bound_is_small_and_fixed(self):
        assert fused.code_cache_info().maxsize == 256

    def test_a_hit_is_the_most_recently_used(self, db, monkeypatch):
        fused.code_cache_clear()
        monkeypatch.setattr(fused, "_CACHE_SIZE", 2)
        first = "select c.custkey from customer c"
        second = "select c.custkey, c.custkey from customer c"
        third = "select c.custkey, c.custkey, c.custkey from customer c"
        run(db, first), run(db, second)
        assert run(db, first)[2]  # now ``second`` is the oldest
        assert not run(db, third)[2]
        assert run(db, first)[2] and not run(db, second)[2]


class TestAnEntryPinsNothing:
    def test_a_database_dies_with_the_cache_populated(self):
        fused.code_cache_clear()
        db = build(SystemConfig(work_mem_pages=1), with_indexes=True)
        session = db.connect()
        for sql in (
            JOIN_SQL.format(price=1000.0),
            "select c.custkey from customer c where c.custkey = 17",
            "select c.name from customer c where c.name like 'Cust%' order by c.name",
            "select c.nationkey, count(*) from customer c group by c.nationkey",
            "select custkey from customer where custkey in "
            "(select custkey from orders where totalprice > 1000.0)",
        ):
            session.submit(sql, monitor=True).result()
            session.submit(sql, monitor=False).result()
        assert fused.code_cache_info().currsize >= 8
        customer = db.catalog.get_table("customer")
        refs = [
            weakref.ref(obj)
            for obj in (db, db.clock, db.disk, db.buffer_pool, db.catalog,
                        customer, customer.heap, session)
        ]
        del db, session, customer
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
        assert fused.code_cache_info().currsize >= 8


# ----------------------------------------------------------------------
# one mutant per key component: drop it from the key, a named test fails

CLASS, COLUMNS, ANNOTATIONS, FACTS, EXPRS, CHILDREN = range(6)


def without(position, of=None, fact=None):
    """A ``_node_key`` that blanks one position (of one node class; of the
    facts, one fact) in every node's key."""
    real = fused._node_key

    def mutated(node, nodes, exprs):
        key = list(real(node, nodes, exprs))
        if of is None or type(node) is of:
            if fact is None:
                key[position] = None
            else:
                facts = list(key[FACTS])
                facts[fact] = None
                key[FACTS] = tuple(facts)
        return tuple(key)

    return "_node_key", mutated


def plan_key_without(position):
    real = fused._plan_key

    def mutated(root, ctx, nodes, exprs):
        key = list(real(root, ctx, nodes, exprs))
        key[position] = None
        return tuple(key)

    return "_plan_key", mutated


def expr_key_blind_to(kind):
    """An ``_expr_key`` that sees the class of a ``kind`` expression only
    (``kind`` None: sees everything but a comparison's operator)."""
    real = fused._expr_key

    def mutated(expr, exprs):
        key = real(expr, exprs)
        if kind is None and isinstance(expr, ComparisonExpr):
            return (key[0], None, *key[2:])
        if kind is not None and isinstance(expr, kind):
            return kind
        return key

    return "_expr_key", mutated


Key = TestSpecializationsAreInTheKey
Facts = TestCatalogFactsChange
MUTANTS = {
    "config": (lambda: plan_key_without(0), Key.test_cost_constants_are_in_the_key),
    "config (batch_rows)": (lambda: plan_key_without(0), Key.test_batch_rows_is_in_the_key),
    "monitored": (lambda: plan_key_without(1), Key.test_monitored_differs_from_plain),
    "node class": (lambda: without(CLASS), Key.test_plan_classes_and_tree_shape_are_in_the_key),
    "children": (lambda: without(CHILDREN), Key.test_plan_classes_and_tree_shape_are_in_the_key),
    "columns": (lambda: without(COLUMNS), Key.test_columns_are_in_the_key),
    "annotations": (
        lambda: without(ANNOTATIONS),
        TestAlignmentVerdict.test_a_verdict_does_not_cover_other_annotations,
    ),
    "num_pages": (
        lambda: without(FACTS, SeqScanNode, fact=2),
        Facts.test_rows_loaded_until_num_pages_changes,
    ),
    "index height": (
        lambda: without(FACTS, IndexScanNode, fact=2),
        Facts.test_rows_loaded_until_index_height_changes,
    ),
    "index fanout": (
        lambda: without(FACTS, IndexScanNode, fact=3),
        Facts.test_index_fanout_is_in_the_key,
    ),
    "low_inclusive": (
        lambda: without(FACTS, IndexScanNode, fact=4),
        Key.test_inclusive_flags_are_in_the_key,
    ),
    "high_inclusive": (
        lambda: without(FACTS, IndexScanNode, fact=5),
        Key.test_inclusive_flags_are_in_the_key,
    ),
    "num_batches": (
        lambda: without(FACTS, HashJoinNode, fact=0),
        Key.test_num_batches_is_in_the_key,
    ),
    "expressions": (lambda: without(EXPRS), Key.test_expression_structure_is_in_the_key),
    "operator": (
        lambda: expr_key_blind_to(None), Key.test_expression_structure_is_in_the_key
    ),
    "column coordinate": (
        lambda: expr_key_blind_to(ColumnExpr), Key.test_expression_structure_is_in_the_key
    ),
    "literal NULL-ness": (
        lambda: expr_key_blind_to(LiteralExpr),
        TestClosureFallbacks.test_null_literal_stays_inline,
    ),
    "literal type": (
        lambda: expr_key_blind_to(LiteralExpr),
        TestClosureFallbacks.test_unsafe_literal_type_keeps_its_closure,
    ),
}

#: Arguments of the killing tests that are not the ``db`` fixture.
EXTRA_ARGS = {
    "test_a_verdict_does_not_cover_other_annotations": ("segment_id", 99),
    "test_rows_loaded_until_num_pages_changes": (False,),
    "test_rows_loaded_until_index_height_changes": (False,),
}


@pytest.mark.parametrize("component", MUTANTS)
def test_a_key_without_the_component_fails_its_test(component, db, monkeypatch):
    mutant, killer = MUTANTS[component]
    code = killer.__code__
    args = ((db,) if "db" in code.co_varnames[: code.co_argcount] else ())
    args += EXTRA_ARGS.get(killer.__name__, ())
    instance = globals()[killer.__qualname__.split(".")[0]]()
    killer(instance, *args)  # passes on the shipped key ...
    monkeypatch.setattr(fused, *mutant())
    try:
        killer(instance, *args)  # ... and not without the component
    except (Exception, pytest.fail.Exception):
        pass
    else:
        pytest.fail(f"{killer.__qualname__} passes on a key without {component}")
    finally:
        monkeypatch.undo()
        fused.code_cache_clear()  # no mutant's program outlives it
