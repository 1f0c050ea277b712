"""Name resolution: AST -> bound query over catalog tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.catalog import Catalog, Table
from repro.errors import BindError
from repro.expr.bound import (
    AGGREGATE_KINDS,
    AggregateExpr,
    ArithmeticExpr,
    BoundExpr,
    ColumnExpr,
    ComparisonExpr,
    FunctionExpr,
    InSubqueryExpr,
    LikeExpr,
    LiteralExpr,
    LogicalExpr,
    NegativeExpr,
    NotExpr,
    as_conjuncts,
    contains_aggregate,
)
from repro.expr.functions import lookup_function
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InSubquery,
    LikePattern,
    Literal,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
)
from repro.storage.types import BOOLEAN, DATE, FLOAT, INTEGER, StringType


@dataclass
class BoundTable:
    """One FROM-list entry after resolution."""

    index: int
    table: Table
    binding_name: str


@dataclass
class BoundQuery:
    """A fully resolved select-project-join query, ready for planning."""

    tables: list[BoundTable]
    #: Output expressions with their column names, in SELECT-list order.
    output: list[tuple[BoundExpr, str]]
    #: WHERE clause flattened into top-level AND conjuncts.
    conjuncts: list[BoundExpr]
    #: GROUP BY keys (plain column references).
    group_by: list[BoundExpr] = field(default_factory=list)
    #: HAVING predicate over group keys and aggregates.
    having: Optional[BoundExpr] = None
    #: SELECT DISTINCT: deduplicate final output rows.
    distinct: bool = False
    order_by: list[tuple[BoundExpr, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    #: Every IN-subquery of WHERE, then the SELECT list, then HAVING: the
    #: order the optimizer plans them in and their InitPlans charge the clock.
    in_subqueries: list[InSubqueryExpr] = field(default_factory=list)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def is_grouped(self) -> bool:
        """Whether this query aggregates (GROUP BY or aggregate outputs)."""
        if self.group_by or self.having is not None:
            return True
        return any(contains_aggregate(expr) for expr, _ in self.output)


class Binder:
    """Resolves an AST statement against a catalog."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        #: Every table resolved, IN-subqueries' included, by catalog name:
        #: what a plan of the statement read (the statement cache's check).
        self.tables_read: dict[str, Table] = {}

    def bind(self, statement: SelectStatement) -> BoundQuery:
        """Resolve one parsed statement into a BoundQuery."""
        tables = self._bind_from(statement.from_tables)
        by_name = {t.binding_name: t for t in tables}
        #: The InSubqueryExprs of this statement, as _bind_expr makes them.
        self._found: list[InSubqueryExpr] = []

        output = self._bind_select_list(statement, tables, by_name)
        after_output = len(self._found)

        conjuncts: list[BoundExpr] = []
        if statement.where is not None:
            where = self._bind_expr(statement.where, tables, by_name)
            if where.type != BOOLEAN:
                raise BindError("WHERE clause must be a boolean expression")
            conjuncts = as_conjuncts(where)
        after_where = len(self._found)

        group_by = [
            self._bind_expr(e, tables, by_name) for e in statement.group_by
        ]
        for key in group_by:
            if not isinstance(key, ColumnExpr):
                raise BindError("GROUP BY supports plain column references only")

        having = None
        if statement.having is not None:
            having = self._bind_expr(statement.having, tables, by_name)
            if having.type != BOOLEAN:
                raise BindError("HAVING clause must be a boolean expression")
        found = self._found  # (one in ORDER BY is not planned, as before)
        in_subqueries = (
            found[after_output:after_where] + found[:after_output] + found[after_where:]
        )

        order_by = []
        for item in statement.order_by:
            order_by.append((self._bind_expr(item.expr, tables, by_name), item.ascending))

        query = BoundQuery(
            tables=tables,
            output=output,
            conjuncts=conjuncts,
            group_by=group_by,
            having=having,
            distinct=statement.distinct,
            order_by=order_by,
            limit=statement.limit,
            in_subqueries=in_subqueries,
        )
        self._validate_grouping(query)
        return query

    # ------------------------------------------------------------------

    def _bind_from(self, refs: tuple[TableRef, ...]) -> list[BoundTable]:
        if not refs:
            raise BindError("FROM list cannot be empty")
        tables: list[BoundTable] = []
        seen: set[str] = set()
        for i, ref in enumerate(refs):
            name = ref.binding_name.lower()
            if name in seen:
                raise BindError(f"duplicate table binding name {name!r}")
            seen.add(name)
            table = self._catalog.get_table(ref.name)
            self.tables_read[table.name] = table
            tables.append(BoundTable(i, table, name))
        return tables

    def _bind_select_list(
        self,
        statement: SelectStatement,
        tables: list[BoundTable],
        by_name: dict[str, BoundTable],
    ) -> list[tuple[BoundExpr, str]]:
        output: list[tuple[BoundExpr, str]] = []
        used_names: set[str] = set()

        def emit(expr: BoundExpr, name: str) -> None:
            # Disambiguate duplicate output names (e.g. two totalprice in Q3).
            final = name
            suffix = 1
            while final in used_names:
                suffix += 1
                final = f"{name}_{suffix}"
            used_names.add(final)
            output.append((expr, final))

        for item in statement.select_items:
            if isinstance(item.expr, Star):
                targets = tables
                if item.expr.qualifier is not None:
                    qualifier = item.expr.qualifier.lower()
                    if qualifier not in by_name:
                        raise BindError(f"unknown table qualifier {qualifier!r}")
                    targets = [by_name[qualifier]]
                for bound in targets:
                    for ci, col in enumerate(bound.table.schema.columns):
                        emit(
                            ColumnExpr(bound.index, ci, col.name, col.type),
                            col.name,
                        )
                continue
            expr = self._bind_expr(item.expr, tables, by_name)
            if item.alias:
                name = item.alias
            elif isinstance(item.expr, ColumnRef):
                name = item.expr.name  # bare column name, per SQL convention
            else:
                name = f"col{len(output) + 1}"
            emit(expr, name)
        if not output:
            raise BindError("SELECT list cannot be empty")
        return output

    # ------------------------------------------------------------------

    def _bind_expr(
        self,
        expr: Expression,
        tables: list[BoundTable],
        by_name: dict[str, BoundTable],
    ) -> BoundExpr:
        if isinstance(expr, Literal):
            return LiteralExpr(expr.value, _literal_type(expr.value))

        if isinstance(expr, ColumnRef):
            return self._bind_column(expr, tables, by_name)

        if isinstance(expr, InSubquery):
            operand = self._bind_expr(expr.operand, tables, by_name)
            binder = Binder(self._catalog)
            binder.tables_read = self.tables_read
            try:
                inner = binder.bind(expr.subquery)
            except BindError as exc:
                raise BindError(
                    f"cannot bind IN-subquery ({exc}); note that correlated "
                    "subqueries are not supported"
                ) from exc
            if len(inner.output) != 1:
                raise BindError("IN-subquery must select exactly one column")
            inner_type = inner.output[0][0].type
            numeric = (INTEGER, FLOAT, DATE)
            compatible = (
                (operand.type in numeric and inner_type in numeric)
                or (
                    isinstance(operand.type, StringType)
                    and isinstance(inner_type, StringType)
                )
            )
            if not compatible:
                raise BindError(
                    f"cannot test {operand.type!r} against an IN-subquery "
                    f"of {inner_type!r}"
                )
            self._found.append(InSubqueryExpr(operand, inner, negated=expr.negated))
            return self._found[-1]

        if isinstance(expr, LikePattern):
            operand = self._bind_expr(expr.operand, tables, by_name)
            if not isinstance(operand.type, StringType):
                raise BindError("LIKE requires a string operand")
            return LikeExpr(operand, expr.pattern, negated=expr.negated)

        if isinstance(expr, FunctionCall):
            name = expr.name.lower()
            if name in AGGREGATE_KINDS:
                return self._bind_aggregate(expr, tables, by_name)
            if any(isinstance(a, Star) for a in expr.args):
                raise BindError(f"'*' is only valid as the argument of count()")
            func = lookup_function(expr.name, len(expr.args))
            args = [self._bind_expr(a, tables, by_name) for a in expr.args]
            return FunctionExpr(func, args)

        if isinstance(expr, UnaryOp):
            operand = self._bind_expr(expr.operand, tables, by_name)
            if expr.op == "not":
                if operand.type != BOOLEAN:
                    raise BindError("NOT requires a boolean operand")
                return NotExpr(operand)
            if expr.op == "-":
                if operand.type not in (INTEGER, FLOAT, DATE):
                    raise BindError("unary minus requires a numeric operand")
                return NegativeExpr(operand)
            raise BindError(f"unsupported unary operator {expr.op!r}")

        if isinstance(expr, BinaryOp):
            if expr.op in ("and", "or"):
                left = self._bind_expr(expr.left, tables, by_name)
                right = self._bind_expr(expr.right, tables, by_name)
                if left.type != BOOLEAN or right.type != BOOLEAN:
                    raise BindError(f"{expr.op.upper()} requires boolean operands")
                return LogicalExpr(expr.op, [left, right])
            if expr.op in ("=", "<>", "<", "<=", ">", ">="):
                left = self._bind_expr(expr.left, tables, by_name)
                right = self._bind_expr(expr.right, tables, by_name)
                _check_comparable(left, right, expr.op)
                return ComparisonExpr(expr.op, left, right)
            if expr.op in ("+", "-", "*", "/"):
                left = self._bind_expr(expr.left, tables, by_name)
                right = self._bind_expr(expr.right, tables, by_name)
                for side in (left, right):
                    if side.type not in (INTEGER, FLOAT, DATE):
                        raise BindError(
                            f"arithmetic operator {expr.op!r} requires numeric operands"
                        )
                return ArithmeticExpr(expr.op, left, right)
            raise BindError(f"unsupported binary operator {expr.op!r}")

        raise BindError(f"cannot bind expression node {type(expr).__name__}")

    def _bind_aggregate(
        self,
        call: FunctionCall,
        tables: list[BoundTable],
        by_name: dict[str, BoundTable],
    ) -> AggregateExpr:
        kind = call.name.lower()
        if len(call.args) != 1:
            raise BindError(f"aggregate {kind}() expects exactly one argument")
        arg_ast = call.args[0]
        if isinstance(arg_ast, Star):
            if kind != "count":
                raise BindError(f"'*' is only valid as the argument of count()")
            return AggregateExpr("count", None)
        arg = self._bind_expr(arg_ast, tables, by_name)
        if contains_aggregate(arg):
            raise BindError("aggregate functions cannot be nested")
        if kind in ("sum", "avg") and arg.type not in (INTEGER, FLOAT, DATE):
            raise BindError(f"{kind}() requires a numeric argument")
        return AggregateExpr(kind, arg)

    def _validate_grouping(self, query: BoundQuery) -> None:
        """Enforce SQL grouping rules on a bound query."""
        for conjunct in query.conjuncts:
            if contains_aggregate(conjunct):
                raise BindError("aggregate functions are not allowed in WHERE")
        if not query.is_grouped:
            return
        group_coords = {
            key.coordinate for key in query.group_by if isinstance(key, ColumnExpr)
        }

        def check(expr: BoundExpr, clause: str) -> None:
            """Bare columns outside aggregates must be grouping keys."""
            if isinstance(expr, AggregateExpr):
                return  # columns inside the aggregate argument are fine
            if isinstance(expr, ColumnExpr):
                if expr.coordinate not in group_coords:
                    raise BindError(
                        f"column {expr.name!r} in {clause} must appear in "
                        "GROUP BY or inside an aggregate"
                    )
                return
            for attr in ("args", "left", "right", "operand", "arg"):
                child = getattr(expr, attr, None)
                if isinstance(child, BoundExpr):
                    check(child, clause)
                elif isinstance(child, list):
                    for c in child:
                        check(c, clause)

        for expr, _name in query.output:
            check(expr, "SELECT list")
        if query.having is not None:
            check(query.having, "HAVING")
        for expr, _asc in query.order_by:
            check(expr, "ORDER BY")

    def _bind_column(
        self,
        ref: ColumnRef,
        tables: list[BoundTable],
        by_name: dict[str, BoundTable],
    ) -> ColumnExpr:
        if ref.qualifier is not None:
            qualifier = ref.qualifier.lower()
            bound = by_name.get(qualifier)
            if bound is None:
                raise BindError(f"unknown table qualifier {qualifier!r}")
            schema = bound.table.schema
            if not schema.has_column(ref.name):
                raise BindError(
                    f"table {bound.binding_name!r} has no column {ref.name!r}"
                )
            ci = schema.index_of(ref.name)
            return ColumnExpr(bound.index, ci, f"{qualifier}.{ref.name}", schema.columns[ci].type)

        matches = [
            bound for bound in tables if bound.table.schema.has_column(ref.name)
        ]
        if not matches:
            raise BindError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            names = ", ".join(m.binding_name for m in matches)
            raise BindError(f"ambiguous column {ref.name!r} (found in: {names})")
        bound = matches[0]
        ci = bound.table.schema.index_of(ref.name)
        return ColumnExpr(
            bound.index, ci, ref.name, bound.table.schema.columns[ci].type
        )


def _literal_type(value):
    if value is None:
        return INTEGER  # NULL defaults; comparisons handle None anyway.
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return StringType(max(1, len(value)))
    raise BindError(f"unsupported literal {value!r}")


def _check_comparable(left: BoundExpr, right: BoundExpr, op: str) -> None:
    numeric = (INTEGER, FLOAT, DATE)
    if left.type in numeric and right.type in numeric:
        return
    if isinstance(left.type, StringType) and isinstance(right.type, StringType):
        return
    if left.type == BOOLEAN and right.type == BOOLEAN and op in ("=", "<>"):
        return
    raise BindError(
        f"cannot compare {left.type!r} with {right.type!r} using {op!r}"
    )
