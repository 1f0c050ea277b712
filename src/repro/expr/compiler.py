"""Lowering bound expressions to Python closures.

Each physical operator works over rows with a concrete *slot layout*: a
mapping from (table index, column index) coordinates to positions in the
operator's input tuple.  ``compile_expr`` turns a bound expression plus a
layout into a closure ``f(row) -> value`` built from nested closures — no
``eval``/code generation, just ordinary functions, which keeps the engine
debuggable while still being fast enough for per-tuple use.

Comparison semantics are SQL-ish three-valued logic collapsed at the
predicate boundary: a comparison involving NULL yields None, and
``compile_predicate`` maps None to False (rows with unknown predicate
values do not qualify).
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Mapping

from repro.errors import ExecutionError
from repro.expr.bound import (
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
)

Layout = Mapping[tuple[int, int], int]

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def compile_expr(expr: BoundExpr, layout: Layout) -> Callable:
    """Compile ``expr`` into a closure evaluating one row."""
    if isinstance(expr, ColumnExpr):
        try:
            slot = layout[expr.coordinate]
        except KeyError:
            raise ExecutionError(
                f"column {expr.name!r} (coordinate {expr.coordinate}) "
                "is not available in this operator's input layout"
            ) from None
        return operator.itemgetter(slot)

    if isinstance(expr, LiteralExpr):
        value = expr.value
        return lambda row: value

    if isinstance(expr, FunctionExpr):
        arg_fns = [compile_expr(a, layout) for a in expr.args]
        if len(arg_fns) == 1:
            raw, arg0 = expr.func.fn, arg_fns[0]
            return lambda row: None if (v := arg0(row)) is None else raw(v)
        fn = expr.func.evaluate
        return lambda row: fn(*(g(row) for g in arg_fns))

    if isinstance(expr, ComparisonExpr):
        cmp = _COMPARE[expr.op]
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def compare(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return cmp(a, b)

        return compare

    if isinstance(expr, LogicalExpr):
        arg_fns = [compile_expr(a, layout) for a in expr.args]
        if expr.op == "and":

            def conjunction(row):
                result = True
                for g in arg_fns:
                    v = g(row)
                    if v is False:
                        return False
                    if v is None:
                        result = None
                return result

            return conjunction

        def disjunction(row):
            result = False
            for g in arg_fns:
                v = g(row)
                if v is True:
                    return True
                if v is None:
                    result = None
            return result

        return disjunction

    if isinstance(expr, ArithmeticExpr):
        op = _ARITH[expr.op]
        left = compile_expr(expr.left, layout)
        right = compile_expr(expr.right, layout)

        def arith(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return op(a, b)

        return arith

    if isinstance(expr, InSubqueryExpr):
        inner = compile_expr(expr.operand, layout)
        node = expr  # membership() consults the subplan's runtime result

        def in_subquery(row):
            return node.membership(inner(row))

        return in_subquery

    if isinstance(expr, LikeExpr):
        inner = compile_expr(expr.operand, layout)
        match = like_matcher(expr.pattern)
        negated = expr.negated

        def like(row):
            v = inner(row)
            if v is None:
                return None
            matched = match(v) is not None
            return (not matched) if negated else matched

        return like

    if isinstance(expr, NotExpr):
        inner = compile_expr(expr.operand, layout)

        def negate(row):
            v = inner(row)
            return None if v is None else not v

        return negate

    if isinstance(expr, NegativeExpr):
        inner = compile_expr(expr.operand, layout)

        def minus(row):
            v = inner(row)
            return None if v is None else -v

        return minus

    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def like_pattern_to_regex(pattern: str) -> str:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out) + r"\Z"


def like_matcher(pattern: str) -> Callable:
    """The bound ``match`` of a LIKE pattern's regular expression."""
    return re.compile(like_pattern_to_regex(pattern), re.DOTALL).match


def compile_predicate(expr: BoundExpr, layout: Layout) -> Callable:
    """Compile a boolean expression; NULL results count as False."""
    fn = compile_expr(expr, layout)
    return lambda row: fn(row) is True
