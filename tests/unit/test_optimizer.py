"""Unit tests for plan search and plan shapes."""

import pytest

from repro.config import SystemConfig
from repro.database import Database
from repro.errors import PlanError
from repro.planner.physical import (
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    MergeJoinNode,
    NestLoopNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)
from repro.storage.schema import Column, Schema
from repro.storage.types import INTEGER, string
from repro.workloads import queries, tpcr


def find_nodes(root, node_type):
    out = []

    def walk(node):
        if isinstance(node, node_type):
            out.append(node)
        for child in node.children:
            walk(child)

    walk(root)
    return out


class TestSingleTablePlans:
    def test_scan_project_shape(self, small_db):
        plan = small_db.prepare("select a, b from t1")
        assert isinstance(plan.root, ProjectNode)
        assert isinstance(plan.root.child, SeqScanNode)

    def test_filters_pushed_to_scan(self, small_db):
        plan = small_db.prepare("select a from t1 where b = 3 and a < 10")
        scan = find_nodes(plan.root, SeqScanNode)[0]
        assert len(scan.filters) == 2

    def test_column_pruning(self, small_db):
        plan = small_db.prepare("select a from t1")
        scan = find_nodes(plan.root, SeqScanNode)[0]
        assert [c.name for c in scan.columns] == ["a"]

    def test_select_star_keeps_all_columns(self, small_db):
        plan = small_db.prepare("select * from t1")
        scan = find_nodes(plan.root, SeqScanNode)[0]
        assert len(scan.columns) == 3

    def test_estimates_annotated(self, small_db):
        plan = small_db.prepare("select a from t1 where b = 3")
        scan = find_nodes(plan.root, SeqScanNode)[0]
        assert scan.est_base_rows == 100
        assert scan.est_rows == pytest.approx(10.0)

    def test_limit_on_top(self, small_db):
        plan = small_db.prepare("select a from t1 limit 5")
        assert isinstance(plan.root, LimitNode)
        assert plan.root.limit == 5

    def test_order_by_adds_sort(self, small_db):
        plan = small_db.prepare("select a from t1 order by b desc")
        sorts = find_nodes(plan.root, SortNode)
        assert len(sorts) == 1
        assert sorts[0].keys[0][1] is False  # descending


class TestIndexSelection:
    @pytest.fixture
    def indexed_db(self):
        """A table large enough that a selective index probe beats a scan."""
        db = Database()
        db.create_table(
            "big",
            Schema([Column("k", INTEGER), Column("pad", string(60))]),
            [(i, "x" * 50) for i in range(20_000)],
        )
        db.analyze()
        db.create_index("big", "k")
        return db

    def test_selective_equality_uses_index(self, indexed_db):
        plan = indexed_db.prepare("select k from big where k = 5")
        assert find_nodes(plan.root, IndexScanNode)

    def test_unselective_scan_stays_sequential(self, indexed_db):
        plan = indexed_db.prepare("select k from big")
        assert not find_nodes(plan.root, IndexScanNode)
        assert find_nodes(plan.root, SeqScanNode)

    def test_index_disabled_by_flag(self, indexed_db):
        indexed_db.config = indexed_db.config.with_planner(enable_indexscan=False)
        plan = indexed_db.prepare("select k from big where k = 5")
        assert not find_nodes(plan.root, IndexScanNode)

    def test_range_bounds_extracted(self, indexed_db):
        plan = indexed_db.prepare("select k from big where k >= 3 and k < 5")
        scans = find_nodes(plan.root, IndexScanNode)
        assert scans
        scan = scans[0]
        assert scan.low == 3 and scan.low_inclusive
        assert scan.high == 5 and not scan.high_inclusive

    def test_index_scan_results_match_seq_scan(self, indexed_db):
        via_index = indexed_db.connect().execute("select k from big where k = 123")
        indexed_db.config = indexed_db.config.with_planner(enable_indexscan=False)
        via_seq = indexed_db.connect().execute("select k from big where k = 123")
        assert via_index.rows == via_seq.rows == [(123,)]


class TestJoinPlans:
    def test_equijoin_uses_hash_join(self, small_db):
        plan = small_db.prepare("select t1.a from t1, t2 where t1.a = t2.a")
        assert find_nodes(plan.root, HashJoinNode)

    def test_hash_join_builds_smaller_side(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(
            "select c.custkey from customer c, orders o where c.custkey = o.custkey"
        )
        join = find_nodes(plan.root, HashJoinNode)[0]
        assert isinstance(join.build, SeqScanNode)
        assert join.build.table.name == "customer"

    def test_non_equi_join_uses_nestloop(self, small_db):
        plan = small_db.prepare("select t1.a from t1, t2 where t1.a <> t2.a")
        assert find_nodes(plan.root, NestLoopNode)
        assert not find_nodes(plan.root, HashJoinNode)

    def test_merge_join_when_forced(self, small_db):
        small_db.config = small_db.config.with_planner(
            enable_hashjoin=False, enable_nestloop=False
        )
        plan = small_db.prepare("select t1.a from t1, t2 where t1.a = t2.a")
        assert find_nodes(plan.root, MergeJoinNode)
        assert len(find_nodes(plan.root, SortNode)) == 2

    def test_nestloop_when_hash_and_merge_disabled(self, small_db):
        small_db.config = small_db.config.with_planner(
            enable_hashjoin=False, enable_mergejoin=False
        )
        plan = small_db.prepare("select t1.a from t1, t2 where t1.a = t2.a")
        assert find_nodes(plan.root, NestLoopNode)

    def test_three_way_join_order(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(queries.Q2)
        joins = find_nodes(plan.root, HashJoinNode)
        assert len(joins) == 2
        # The top join's probe side must be the lineitem scan: the paper's
        # plan (Figure 8) streams lineitem into the second hash join.
        top = joins[0]
        probe_scans = find_nodes(top.probe, SeqScanNode)
        assert any(s.table.name == "lineitem" for s in probe_scans)

    def test_join_output_columns_pruned(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(
            "select c.acctbal from customer c, orders o where c.custkey = o.custkey"
        )
        join = find_nodes(plan.root, HashJoinNode)[0]
        assert [c.name for c in join.columns] == ["acctbal"]

    def test_multi_batch_planned_when_build_exceeds_work_mem(self):
        config = SystemConfig(work_mem_pages=2)
        db = tpcr.build_database(scale=0.002, config=config)
        plan = db.prepare(queries.Q2)
        joins = find_nodes(plan.root, HashJoinNode)
        assert any(j.num_batches > 1 for j in joins)

    def test_default_selectivity_underestimates_lineitem(self, tiny_tpcr):
        plan = tiny_tpcr.prepare(queries.Q2)
        scan = [
            s
            for s in find_nodes(plan.root, SeqScanNode)
            if s.table.name == "lineitem"
        ][0]
        # est = base / 3 while the predicate actually keeps every row.
        assert scan.est_rows == pytest.approx(scan.est_base_rows / 3.0)


class TestPlannerErrors:
    def test_order_by_expression_rejected(self, small_db):
        with pytest.raises(PlanError):
            small_db.prepare("select a from t1 order by a + 1")

    def test_unanalyzed_table_still_plannable(self):
        db = Database()
        db.create_table(
            "raw", Schema([Column("x", INTEGER), Column("s", string(5))]),
            [(i, "a") for i in range(10)],
        )
        plan = db.prepare("select x from raw where x = 3")
        assert isinstance(plan.root, ProjectNode)
