"""Plan search: access paths, Selinger-style join ordering, plan assembly."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.statistics import ColumnStatistics
from repro.config import SystemConfig
from repro.errors import PlanError
from repro.expr.bound import (
    AggregateExpr,
    ArithmeticExpr,
    BoundExpr,
    ColumnExpr,
    ComparisonExpr,
    FunctionExpr,
    LogicalExpr,
    NegativeExpr,
    NotExpr,
    as_conjuncts,
    equijoin_sides,
    referenced_tables,
)
from repro.planner import cost as costs
from repro.planner.cost import Cost, hash_join_batches
from repro.planner.physical import (
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    MergeJoinNode,
    NestLoopNode,
    PhysicalNode,
    PlanColumn,
    ProjectNode,
    SeqScanNode,
    SortNode,
    row_width,
)
from repro.planner.selectivity import (
    constant_value,
    filter_selectivity,
    is_constant,
    join_predicate_selectivity,
)
from repro.sql.binder import BoundQuery
from repro.storage.schema import TUPLE_HEADER_BYTES


@dataclass
class PlannedQuery:
    """An optimized query: annotated plan plus planning metadata.

    Immutable once :meth:`repro.database.Database.prepare` returns it: the
    database's statement cache hands the same object to every submission
    of the same text, and in-flight tasks share it.  What depends only on
    the plan is computed once, on first use, into the memo fields below.
    The segment builder's ``pi_*`` annotations are the same values however
    often it runs, and an IN-subquery's value set is recomputed from the
    same tables by every execution before its first row.  Code that edits
    a plan (tests, mostly) plans privately with :meth:`Optimizer.plan`.
    """

    root: PhysicalNode
    query: BoundQuery
    config: SystemConfig
    #: Optimizer search cost of the chosen plan (diagnostics only).
    search_cost: Cost
    #: Uncorrelated IN-subqueries: (expression, inner plan) pairs the
    #: driver pre-executes before the outer plan runs (hashed InitPlans).
    subplans: list = field(default_factory=list)
    #: Memo of :func:`repro.core.segments.planned_segments` (read-only).
    segment_specs: Optional[list] = field(default=None, repr=False, compare=False)
    #: Memo of :func:`repro.core.segments.planned_cost_pages`: the
    #: optimizer's whole-query cost that admission and the indicator read.
    initial_cost_pages: Optional[float] = field(
        default=None, repr=False, compare=False
    )
    #: Memo of the invariant gate's verdict (:func:`repro.analysis.gate.gate_plan`):
    #: the violations of ``segment_specs``, found once, enforced per query.
    violations: Optional[list] = field(default=None, repr=False, compare=False)

    @property
    def output_names(self) -> list[str]:
        return [name for _, name in self.query.output]


#: Slots of an expression that are not plan values: the inner query the
#: optimizer planned into ``plan``, and an IN-subquery's run-time result.
_NOT_PLAN_VALUES = frozenset({"subquery", "_values", "_has_null"})


def plan_values(obj: object) -> object:
    """Everything a plan holds, as comparable nested tuples.

    Node classes, columns, estimates, annotations, expressions with their
    literals, costs, segment specs and output names; a table or index by
    identity.  Two plans with equal values execute alike and start the
    indicator from the same numbers — what the statement cache's strict
    recheck compares a cached plan with a fresh one on.
    """
    if isinstance(obj, PlannedQuery):
        return (
            plan_values(obj.root),
            plan_values(obj.subplans),
            obj.search_cost,
            obj.segment_specs,
            tuple(obj.output_names),
        )
    if isinstance(obj, (list, tuple)):
        return tuple([plan_values(item) for item in obj])
    if isinstance(obj, PhysicalNode):
        return (type(obj), tuple(sorted(
            (name, plan_values(value)) for name, value in vars(obj).items()
        )))
    if isinstance(obj, BoundExpr):
        return (type(obj), tuple([
            plan_values(getattr(obj, name))
            for name in getattr(type(obj), "__slots__", ())
            if name not in _NOT_PLAN_VALUES
        ]))
    return obj


@dataclass
class _DpEntry:
    node: PhysicalNode
    cost: Cost


class Optimizer:
    """Cost-based optimizer over a bound query."""

    def __init__(self, config: SystemConfig):
        self._config = config
        self._work_mem_bytes = config.work_mem_pages * config.page_size

    # ------------------------------------------------------------------

    def plan(self, query: BoundQuery) -> PlannedQuery:
        """Produce the cheapest annotated physical plan for ``query``."""
        self._query = query
        self._default_sel = self._config.planner.default_selectivity

        subplans = self._plan_subqueries(query)

        single, multi = self._classify_conjuncts(query)
        needed = self._needed_coordinates(query, multi)
        # Coordinates needed above all joins (outputs and sort keys) —
        # join keys already applied can be pruned from join outputs.
        self._output_coords = self._needed_coordinates(query, [])

        scans = {
            bt.index: self._best_scan(bt.index, single.get(bt.index, []), needed)
            for bt in query.tables
        }

        if len(query.tables) == 1:
            only = query.tables[0].index
            best = scans[only]
        else:
            best = self._join_search(query, scans, multi, needed)

        node, cost = best.node, best.cost
        output_exprs = [expr for expr, _ in query.output]
        order_pairs = list(query.order_by)
        if query.is_grouped:
            node, cost, output_exprs, order_pairs = self._attach_aggregation(
                node, cost, query
            )
        node, cost = self._attach_order_by(node, cost, order_pairs)
        node = self._attach_projection(node, query, output_exprs)
        if query.distinct:
            # A crude but serviceable estimate: distinct output rows are
            # bounded by the product of the output columns' distinct counts.
            est = node.est_rows
            product = 1.0
            all_columns = True
            for expr in output_exprs:
                if isinstance(expr, ColumnExpr):
                    stats = self._column_stats(expr.coordinate)
                    product *= (
                        stats.num_distinct if stats and stats.num_distinct > 0
                        else min(200.0, max(1.0, est))
                    )
                else:
                    all_columns = False
            if all_columns:
                est = min(est, product)
            node = DistinctNode(node, est)
        if query.limit is not None:
            node = LimitNode(node, query.limit)
        return PlannedQuery(
            root=node,
            query=query,
            config=self._config,
            search_cost=cost,
            subplans=subplans,
        )

    def _plan_subqueries(self, query: BoundQuery) -> list:
        """Plan every uncorrelated IN-subquery the binder recorded."""
        subplans = []
        for expr in query.in_subqueries:
            inner = Optimizer(self._config).plan(expr.subquery)
            expr.plan = inner
            subplans.append((expr, inner))
        return subplans

    # ------------------------------------------------------------------
    # conjunct classification and column pruning

    def _classify_conjuncts(
        self, query: BoundQuery
    ) -> tuple[dict[int, list[BoundExpr]], list[BoundExpr]]:
        """Split WHERE conjuncts into per-table filters and join predicates."""
        single: dict[int, list[BoundExpr]] = {}
        multi: list[BoundExpr] = []
        for conjunct in query.conjuncts:
            tables = referenced_tables(conjunct)
            if len(tables) <= 1:
                target = next(iter(tables)) if tables else query.tables[0].index
                single.setdefault(target, []).append(conjunct)
            else:
                multi.append(conjunct)
        return single, multi

    def _needed_coordinates(
        self, query: BoundQuery, join_predicates: list[BoundExpr]
    ) -> set[tuple[int, int]]:
        """Coordinates that must survive past the scans."""
        needed: set[tuple[int, int]] = set()
        for expr, _ in query.output:
            for col in expr.columns():
                needed.add(col.coordinate)
        for predicate in join_predicates:
            for col in predicate.columns():
                needed.add(col.coordinate)
        for expr, _ in query.order_by:
            for col in expr.columns():
                needed.add(col.coordinate)
        for key in query.group_by:
            for col in key.columns():
                needed.add(col.coordinate)
        if query.having is not None:
            for col in query.having.columns():
                needed.add(col.coordinate)
        return needed

    # ------------------------------------------------------------------
    # statistics access

    def _table_stats(self, table_index: int):
        return self._query.tables[table_index].table.statistics

    def _column_stats(self, coordinate: tuple[int, int]) -> Optional[ColumnStatistics]:
        table_index, column_index = coordinate
        if table_index < 0:
            return None  # synthetic aggregate-output column
        bound = self._query.tables[table_index]
        stats = bound.table.statistics
        if stats is None:
            return None
        name = bound.table.schema.columns[column_index].name
        return stats.column(name)

    def _base_rows(self, table_index: int) -> float:
        stats = self._table_stats(table_index)
        if stats is not None:
            return float(stats.row_count)
        return float(self._query.tables[table_index].table.num_tuples)

    def _plan_columns(
        self, table_index: int, needed: set[tuple[int, int]]
    ) -> list[PlanColumn]:
        bound = self._query.tables[table_index]
        schema = bound.table.schema
        columns = []
        for ci, col in enumerate(schema.columns):
            coordinate = (table_index, ci)
            if coordinate not in needed:
                continue
            stats = self._column_stats(coordinate)
            avg = stats.avg_width if stats is not None else float(col.type.width(None))
            columns.append(PlanColumn(coordinate, col.name, col.type, avg))
        return columns

    # ------------------------------------------------------------------
    # access-path selection

    def _best_scan(
        self,
        table_index: int,
        filters: list[BoundExpr],
        needed: set[tuple[int, int]],
    ) -> _DpEntry:
        bound = self._query.tables[table_index]
        table = bound.table
        base_rows = self._base_rows(table_index)
        selectivity = 1.0
        for f in filters:
            selectivity *= filter_selectivity(f, self._column_stats, self._default_sel)
        est_rows = base_rows * selectivity

        scan_needed = needed | {
            c.coordinate for f in filters for c in f.columns()
        }
        # SELECT * queries need every column of the table.
        output_star = {
            c.coordinate
            for expr, _ in self._query.output
            for c in expr.columns()
            if c.table_index == table_index
        }
        scan_columns = self._plan_columns(table_index, scan_needed | output_star)

        seq_node = SeqScanNode(
            table, table_index, filters, scan_columns, est_rows, base_rows
        )
        seq_cost = costs.seq_scan_cost(table.num_pages, base_rows, len(filters))
        best = _DpEntry(seq_node, seq_cost)

        if not self._config.planner.enable_indexscan:
            return best

        candidate = self._index_scan_candidate(
            table_index, filters, scan_columns, base_rows
        )
        if candidate is not None and candidate.cost.total < best.cost.total:
            best = candidate
        return best

    def _index_scan_candidate(
        self,
        table_index: int,
        filters: list[BoundExpr],
        scan_columns: list[PlanColumn],
        base_rows: float,
    ) -> Optional[_DpEntry]:
        bound = self._query.tables[table_index]
        table = bound.table
        best: Optional[_DpEntry] = None
        for key_column, index in table.indexes.items():
            key_coord = (table_index, table.schema.index_of(key_column))
            low = high = None
            low_inc = high_inc = True
            bounding: list[BoundExpr] = []
            residual: list[BoundExpr] = []
            for f in filters:
                spec = _bounds_from_filter(f, key_coord)
                if spec is None:
                    residual.append(f)
                    continue
                f_low, f_high, f_low_inc, f_high_inc = spec
                if f_low is not None and (low is None or f_low >= low):
                    low, low_inc = f_low, f_low_inc
                if f_high is not None and (high is None or f_high <= high):
                    high, high_inc = f_high, f_high_inc
                bounding.append(f)
            if not bounding:
                continue
            bound_sel = 1.0
            for f in bounding:
                bound_sel *= filter_selectivity(f, self._column_stats, self._default_sel)
            matching = base_rows * bound_sel
            residual_sel = 1.0
            for f in residual:
                residual_sel *= filter_selectivity(
                    f, self._column_stats, self._default_sel
                )
            est_rows = matching * residual_sel
            heap_pages = min(float(table.num_pages), matching)
            cost = costs.index_scan_cost(
                index.height,
                index.leaf_pages_for(max(1, int(matching))),
                matching,
                heap_pages,
                len(residual),
            )
            node = IndexScanNode(
                table,
                table_index,
                index,
                low,
                high,
                low_inc,
                high_inc,
                residual,
                scan_columns,
                est_rows,
                matching,
            )
            if best is None or cost.total < best.cost.total:
                best = _DpEntry(node, cost)
        return best

    # ------------------------------------------------------------------
    # join ordering (left-deep Selinger DP)

    def _join_search(
        self,
        query: BoundQuery,
        scans: dict[int, _DpEntry],
        join_predicates: list[BoundExpr],
        needed: set[tuple[int, int]],
    ) -> _DpEntry:
        indexes = [bt.index for bt in query.tables]
        dp: dict[frozenset[int], _DpEntry] = {
            frozenset([i]): scans[i] for i in indexes
        }

        pred_tables = [(p, referenced_tables(p)) for p in join_predicates]

        for size in range(2, len(indexes) + 1):
            for subset in _subsets(indexes, size):
                best: Optional[_DpEntry] = None
                for t in subset:
                    rest = subset - {t}
                    left_entry = dp.get(rest)
                    if left_entry is None:
                        continue
                    right_entry = scans[t]
                    applicable = [
                        p
                        for p, tables in pred_tables
                        if tables <= subset and t in tables and (tables & rest)
                    ]
                    # Avoid pointless cross products while connected joins exist.
                    if not applicable and _has_connected_alternative(
                        subset, rest, pred_tables, dp, scans
                    ):
                        continue
                    candidate = self._best_join(
                        left_entry, right_entry, applicable, subset, needed, pred_tables
                    )
                    if candidate is not None and (
                        best is None or candidate.cost.total < best.cost.total
                    ):
                        best = candidate
                if best is not None:
                    dp[subset] = best

        full = frozenset(indexes)
        if full not in dp:
            raise PlanError("could not find a join order for the query")
        return dp[full]

    def _best_join(
        self,
        left: _DpEntry,
        right: _DpEntry,
        predicates: list[BoundExpr],
        subset: frozenset[int],
        needed: set[tuple[int, int]],
        pred_tables: list[tuple[BoundExpr, frozenset[int]]],
    ) -> Optional[_DpEntry]:
        planner = self._config.planner
        page_size = self._config.page_size

        # Split equi-join conjuncts from everything else.
        equi: list[tuple[ColumnExpr, ColumnExpr]] = []
        others: list[BoundExpr] = []
        left_tables = {c.coordinate[0] for c in left.node.columns}
        for p in predicates:
            sides = equijoin_sides(p)
            if sides is None:
                others.append(p)
                continue
            a, b = sides
            if a.table_index in left_tables:
                equi.append((a, b))
            else:
                equi.append((b, a))

        out_rows = left.node.est_rows * right.node.est_rows
        for p in predicates:
            out_rows *= join_predicate_selectivity(
                p, self._column_stats, self._default_sel
            )

        # Columns that must flow out of this join: final outputs, order keys,
        # and any predicate that is not yet applied at this level.  Join
        # keys consumed here are dropped unless something above needs them.
        still_needed = set(self._output_coords)
        for p, tables in pred_tables:
            if not tables <= subset:
                for c in p.columns():
                    still_needed.add(c.coordinate)
        out_columns = [
            c
            for c in (left.node.columns + right.node.columns)
            if c.coordinate in still_needed
        ]

        candidates: list[_DpEntry] = []
        children_cost = left.cost + right.cost

        if equi and planner.enable_hashjoin:
            for build, probe in ((left, right), (right, left)):
                build_is_left = build is left
                build_keys = [
                    (l if build_is_left else r).coordinate for l, r in equi
                ]
                probe_keys = [
                    (r if build_is_left else l).coordinate for l, r in equi
                ]
                batches = hash_join_batches(
                    build.node.est_bytes, self._work_mem_bytes
                )
                join_cost = costs.hash_join_cost(
                    build.node.est_rows,
                    build.node.est_bytes,
                    probe.node.est_rows,
                    probe.node.est_bytes,
                    out_rows,
                    batches,
                    page_size,
                )
                node = HashJoinNode(
                    build.node,
                    probe.node,
                    build_keys,
                    probe_keys,
                    others,
                    batches,
                    out_columns,
                    out_rows,
                )
                candidates.append(_DpEntry(node, children_cost + join_cost))

        if len(equi) == 1 and planner.enable_mergejoin:
            (lcol, rcol) = equi[0]
            left_sort = SortNode(
                left.node,
                [(lcol.coordinate, True)],
                list(left.node.columns),
                left.node.est_rows,
            )
            right_sort = SortNode(
                right.node,
                [(rcol.coordinate, True)],
                list(right.node.columns),
                right.node.est_rows,
            )
            sort_costs = costs.sort_cost(
                left.node.est_rows,
                left.node.est_bytes,
                self._work_mem_bytes,
                page_size,
            ) + costs.sort_cost(
                right.node.est_rows,
                right.node.est_bytes,
                self._work_mem_bytes,
                page_size,
            )
            join_cost = costs.merge_join_cost(
                left.node.est_rows, right.node.est_rows, out_rows
            )
            node = MergeJoinNode(
                left_sort,
                right_sort,
                lcol.coordinate,
                rcol.coordinate,
                others,
                out_columns,
                out_rows,
            )
            candidates.append(_DpEntry(node, children_cost + sort_costs + join_cost))

        if planner.enable_nestloop or not candidates:
            all_predicates = [p for p in predicates]
            for outer, inner in ((left, right), (right, left)):
                join_cost = costs.nestloop_cost(
                    outer.node.est_rows,
                    inner.node.est_rows,
                    inner.node.est_bytes,
                    self._work_mem_bytes,
                    len(all_predicates),
                    page_size,
                )
                node = NestLoopNode(
                    outer.node, inner.node, all_predicates, out_columns, out_rows
                )
                candidates.append(_DpEntry(node, children_cost + join_cost))

        if not candidates:
            return None
        return min(candidates, key=lambda e: e.cost.total)

    # ------------------------------------------------------------------
    # aggregation

    def _attach_aggregation(
        self, node: PhysicalNode, cost: Cost, query: BoundQuery
    ) -> tuple[PhysicalNode, Cost, list[BoundExpr], list[tuple[BoundExpr, bool]]]:
        """Plan the GROUP BY / HAVING layer and rewrite upper expressions.

        Every distinct aggregate becomes a synthetic output column with
        coordinate ``(-1, i)``; SELECT-list, HAVING and ORDER BY
        expressions are rewritten to reference those columns so the rest
        of the plan (sort, projection) composes unchanged.
        """
        # Collect distinct aggregates in order of first appearance.
        aggregates: list[AggregateExpr] = []
        seen: dict[str, int] = {}

        def collect(expr: BoundExpr) -> None:
            if isinstance(expr, AggregateExpr):
                key = expr.display()
                if key not in seen:
                    seen[key] = len(aggregates)
                    aggregates.append(expr)
                return
            for attr in ("args", "left", "right", "operand", "arg"):
                child = getattr(expr, attr, None)
                if isinstance(child, BoundExpr):
                    collect(child)
                elif isinstance(child, list):
                    for c in child:
                        collect(c)

        for expr, _ in query.output:
            collect(expr)
        if query.having is not None:
            collect(query.having)
        for expr, _ in query.order_by:
            collect(expr)

        # Output columns: group keys (base coordinates) + aggregates.
        child_widths = {c.coordinate: c.avg_width for c in node.columns}
        group_coords = [key.coordinate for key in query.group_by]
        columns: list[PlanColumn] = []
        for key in query.group_by:
            columns.append(
                PlanColumn(
                    key.coordinate,
                    key.name,
                    key.type,
                    child_widths.get(key.coordinate, float(key.type.width(None))),
                )
            )
        agg_columns: dict[str, ColumnExpr] = {}
        for i, agg in enumerate(aggregates):
            coord = (-1, i)
            columns.append(
                PlanColumn(coord, agg.display(), agg.type, float(agg.type.width(None)))
            )
            agg_columns[agg.display()] = ColumnExpr(
                coord[0], coord[1], agg.display(), agg.type
            )

        est_groups = self._estimate_groups(node, group_coords)
        agg_node = HashAggregateNode(node, group_coords, aggregates, columns, est_groups)
        cost = cost + costs.hash_aggregate_cost(node.est_rows, est_groups)
        result: PhysicalNode = agg_node

        output_exprs = [
            _rewrite_aggregates(expr, agg_columns) for expr, _ in query.output
        ]
        order_pairs = [
            (_rewrite_aggregates(expr, agg_columns), asc)
            for expr, asc in query.order_by
        ]

        if query.having is not None:
            having = _rewrite_aggregates(query.having, agg_columns)
            predicates = as_conjuncts(having)
            selectivity = 1.0
            for p in predicates:
                selectivity *= filter_selectivity(
                    p, self._column_stats, self._default_sel
                )
            result = FilterNode(result, predicates, est_groups * selectivity)

        return result, cost, output_exprs, order_pairs

    def _estimate_groups(
        self, child: PhysicalNode, group_coords: list[tuple[int, int]]
    ) -> float:
        """Estimated number of groups (PostgreSQL-style distinct product)."""
        if not group_coords:
            return 1.0
        product = 1.0
        for coord in group_coords:
            stats = self._column_stats(coord)
            if stats is not None and stats.num_distinct > 0:
                product *= stats.num_distinct
            else:
                product *= min(200.0, max(1.0, child.est_rows))
        return max(1.0, min(product, child.est_rows))

    # ------------------------------------------------------------------
    # top of the plan

    def _attach_order_by(
        self,
        node: PhysicalNode,
        cost: Cost,
        order_pairs: list[tuple[BoundExpr, bool]],
    ) -> tuple[PhysicalNode, Cost]:
        if not order_pairs:
            return node, cost
        keys: list[tuple[tuple[int, int], bool]] = []
        for expr, ascending in order_pairs:
            if not isinstance(expr, ColumnExpr):
                raise PlanError("ORDER BY supports plain column references only")
            keys.append((expr.coordinate, ascending))
        sort = SortNode(node, keys, list(node.columns), node.est_rows)
        sort_cost = costs.sort_cost(
            node.est_rows,
            node.est_bytes,
            self._work_mem_bytes,
            self._config.page_size,
        )
        return sort, cost + sort_cost

    def _attach_projection(
        self,
        node: PhysicalNode,
        query: BoundQuery,
        output_exprs: list[BoundExpr],
    ) -> ProjectNode:
        width = TUPLE_HEADER_BYTES
        layout_widths = {c.coordinate: c.avg_width for c in node.columns}
        for expr in output_exprs:
            if isinstance(expr, ColumnExpr):
                width += layout_widths.get(
                    expr.coordinate, float(expr.type.width(None))
                )
            else:
                width += float(expr.type.width(None)) if not is_constant(expr) else 8.0
        names = [name for _, name in query.output]
        return ProjectNode(node, output_exprs, names, node.est_rows, width)


# ----------------------------------------------------------------------
# helpers


def _rewrite_aggregates(
    expr: BoundExpr, agg_columns: dict[str, ColumnExpr]
) -> BoundExpr:
    """Replace aggregate calls with references to the aggregate node's
    synthetic output columns (matched structurally via display form)."""
    if isinstance(expr, AggregateExpr):
        return agg_columns[expr.display()]
    if isinstance(expr, LogicalExpr):
        return LogicalExpr(
            expr.op, [_rewrite_aggregates(a, agg_columns) for a in expr.args]
        )
    if isinstance(expr, ComparisonExpr):
        return ComparisonExpr(
            expr.op,
            _rewrite_aggregates(expr.left, agg_columns),
            _rewrite_aggregates(expr.right, agg_columns),
        )
    if isinstance(expr, ArithmeticExpr):
        return ArithmeticExpr(
            expr.op,
            _rewrite_aggregates(expr.left, agg_columns),
            _rewrite_aggregates(expr.right, agg_columns),
        )
    if isinstance(expr, FunctionExpr):
        return FunctionExpr(
            expr.func, [_rewrite_aggregates(a, agg_columns) for a in expr.args]
        )
    if isinstance(expr, NotExpr):
        return NotExpr(_rewrite_aggregates(expr.operand, agg_columns))
    if isinstance(expr, NegativeExpr):
        return NegativeExpr(_rewrite_aggregates(expr.operand, agg_columns))
    return expr


def _subsets(indexes: list[int], size: int):
    """All frozenset subsets of ``indexes`` with ``size`` elements."""
    n = len(indexes)

    def rec(start: int, chosen: tuple[int, ...]):
        if len(chosen) == size:
            yield frozenset(chosen)
            return
        for i in range(start, n):
            yield from rec(i + 1, chosen + (indexes[i],))

    yield from rec(0, ())


def _has_connected_alternative(
    subset: frozenset[int],
    rest: frozenset[int],
    pred_tables: list[tuple[BoundExpr, frozenset[int]]],
    dp: dict,
    scans: dict,
) -> bool:
    """Whether some other split of ``subset`` joins with a real predicate."""
    for t in subset:
        other_rest = subset - {t}
        if other_rest == rest or other_rest not in dp:
            continue
        for _, tables in pred_tables:
            if tables <= subset and t in tables and (tables & other_rest):
                return True
    return False


def _bounds_from_filter(
    expr: BoundExpr, key_coord: tuple[int, int]
) -> Optional[tuple]:
    """If ``expr`` bounds the index key, return (low, high, low_inc, high_inc)."""
    if not isinstance(expr, ComparisonExpr):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnExpr) and left.coordinate == key_coord and is_constant(right):
        op, value = expr.op, constant_value(right)
    elif isinstance(right, ColumnExpr) and right.coordinate == key_coord and is_constant(left):
        from repro.expr.bound import MIRRORED_OP

        op, value = MIRRORED_OP[expr.op], constant_value(left)
    else:
        return None
    if value is None:
        return None
    if op == "=":
        return (value, value, True, True)
    if op == "<":
        return (None, value, True, False)
    if op == "<=":
        return (None, value, True, True)
    if op == ">":
        return (value, None, False, True)
    if op == ">=":
        return (value, None, True, True)
    return None
