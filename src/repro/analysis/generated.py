"""Checks on the program a query actually runs.

Production executes the *text* :mod:`repro.executor.fused` generates, which
no pass over ``src/`` can see; ``python -m repro.analysis verify`` compiles
every plan it verifies, monitored and plain, and holds ``FusedQuery.source``
to what that module's docstring promises.  The seven checks are defined
exactly in docs/static_analysis.md ("Generated-program checks");
``closed-vocabulary`` is REPRO110's vocabulary, applied to the code that runs.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.invariants import Violation

#: What ``_Compiler.env`` binds besides the per-query ``_g_*`` locals.
_ENV_NAMES = {"PULSE", "_B", "_CPU", "_IO", "_Stop", "_ONE", "heapq"}
#: No hash/id (salted, address-derived), no open/eval/exec/__import__.
_BUILTINS = {"enumerate", "iter", "len", "max", "range", "set", "tuple", "zip"}
#: ``_Compiler.local`` hints: buffer-pool ``get_page`` / disk ``read_page``...
_PAGE_FETCH = re.compile(r"(get|dread)\d+$")
#: ...and the tracker, its bound methods and its segments' counters.
_TRACKER = re.compile(r"(_g_)?(seg|tr(st|in)?\d)")
#: A row ``_Compiler._tuple`` named; a ``compile_expr``/``compile_predicate``
#: closure (filter, projection, aggregate argument).
_ROW, _CLOSURE = re.compile(r"o\d+$"), re.compile(r"(p|a?fn)\d+$")
#: The clock and its ``cost_charged`` dict, as ``_Compiler.local`` binds them.
_CLK, _CCH = re.compile(r"clk\d+$"), re.compile(r"cch\d+$")
#: Callees that neither see nor move the clock: the output list, ``Batch``,
#: the registers' factor refresh, hash-table and set probes, scalar
#: functions, LIKE matchers, expression closures, pins, list appends, the
#: partition hash, aggregate state.
_SILENT = re.compile(
    r"(out_append|_B|_factors|(tget|gget|sf|like|p|a?fn|(un)?pin|[ibwo]app|seenadd|sh"
    r"|AggState|aggfin|aggw)\d+)$"
)
_SILENT_METHODS = {"append", "items", "bit_length"}

_Found = Iterator[tuple[str, int, str]]


def _is_pulse(node: ast.AST) -> bool:
    value = node.value if isinstance(node, ast.Yield) else None
    return isinstance(value, ast.Name) and value.id == "PULSE"


def is_row_loop(node: ast.AST) -> bool:
    """A ``for`` over rows: anything but ``for page_no in range(...)``."""
    return isinstance(node, ast.For) and not (
        isinstance(node.iter, ast.Call) and ast.unparse(node.iter.func) == "range"
    )


def _own(loop: ast.For, skip=frozenset()) -> Iterator[ast.AST]:
    """Nodes of ``loop``'s body that run once per iteration of *it* (not
    those of a statement in ``skip``)."""
    stack: list[ast.AST] = [n for n in loop.body if n not in skip]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.For, ast.While, ast.FunctionDef)):
            stack.extend(n for n in ast.iter_child_nodes(node) if n not in skip)


def _attr_of(node: ast.AST, pattern: re.Pattern, attr: str) -> bool:
    """``node`` is ``<name matching pattern>.<attr>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and bool(pattern.match(node.value.id))
    )


def _is_store(stmt: ast.AST) -> bool:
    """``clk<N>.now, cch<N>[...], ..., now = now, ..., None``."""
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.targets[0], ast.Tuple)
        and _attr_of(stmt.targets[0].elts[0], _CLK, "now")
    )


def _is_reload(stmt: ast.AST) -> bool:
    """``now, nev, ... = clk<N>.now, ...`` or its factor refresh
    ``if clk<N>._factors is not fac: ...``."""
    if isinstance(stmt, ast.If):
        test = stmt.test
        return (
            isinstance(test, ast.Compare)
            and _attr_of(test.left, _CLK, "_factors")
            and isinstance(test.ops[0], ast.IsNot)
        )
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.targets[0], ast.Tuple)
        and ast.unparse(stmt.targets[0].elts[0]) == "now"
        and isinstance(stmt.value, ast.Tuple)
        and _attr_of(stmt.value.elts[0], _CLK, "now")
    )


def _is_register(stmt: ast.AST) -> bool:
    return _is_store(stmt) or _is_reload(stmt)


def _blocks(nodes: list[ast.AST]) -> Iterator[list[ast.stmt]]:
    """Every statement list of the program, ``_sync``'s excepted."""
    fold = {
        n for d in nodes if isinstance(d, ast.FunctionDef) and d.name == "_sync"
        for n in ast.walk(d)
    }
    for node in nodes:
        if node in fold:
            continue
        for block in ("body", "orelse", "finalbody"):
            stmts = getattr(node, block, None)
            if isinstance(stmts, list):  # not a lambda's or if-else's expression
                yield stmts


def _pulse_flush(nodes: list[ast.AST]) -> _Found:
    for stmts in _blocks(nodes):
        stmts = [s for s in stmts if not _is_register(s)]
        for prev, stmt in zip([None, *stmts], stmts):
            flush = isinstance(prev, ast.If) and [
                s for s in prev.body if not _is_register(s)
            ]
            if isinstance(stmt, ast.Expr) and _is_pulse(stmt.value) and not (
                flush
                and ast.unparse(prev.test) == "nout"
                and ast.unparse(flush[0]) == "yield _B(out)"
            ):
                yield "pulse-flush", stmt.lineno, (
                    "`yield PULSE` does not directly follow the `if nout:` flush"
                )


def _page_loop_pulse(nodes: list[ast.AST]) -> _Found:
    for loop in nodes:
        if not isinstance(loop, ast.For):
            continue
        own = list(_own(loop))
        fetch = [
            n.func.id
            for n in own
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and _PAGE_FETCH.match(n.func.id)
        ]
        if not fetch or any(map(_is_pulse, own)):
            continue
        # No generated loop is exempt: sort runs are read by the hand-written
        # _FusedSort.read_run, merge-join inputs by volcano operators.
        kind = "index-scan" if is_row_loop(loop) else "seq-scan"
        if fetch[0].startswith("dread"):
            kind = "spill-partition"
        yield "page-loop-pulse", loop.lineno, (
            f"{kind} page loop `{ast.unparse(loop).splitlines()[0]}` fetches a "
            f"page through {fetch[0]} and never yields PULSE in its own body"
        )


def _row_loop_counts(nodes: list[ast.AST], monitored: bool) -> _Found:
    for node in (n for loop in filter(is_row_loop, nodes) for n in ast.walk(loop)):
        root = node
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if (
            isinstance(node, (ast.Attribute, ast.Subscript))  # not a bare name
            and isinstance(node.ctx, ast.Store)
            and isinstance(root, ast.Name)
            and _TRACKER.match(root.id)
        ):
            yield "row-loop-counts", node.lineno, (
                f"a row loop writes tracker state: `{ast.unparse(node)}`"
            )
    for node in nodes:
        if not monitored and (
            isinstance(node, ast.Nonlocal)
            or (isinstance(node, ast.FunctionDef) and node.name == "_sync")
            or (isinstance(node, ast.Name) and _TRACKER.match(node.id))
        ):
            yield "row-loop-counts", node.lineno, (
                f"tracker code in a plain program: `{ast.unparse(node)[:40]}`"
            )


def row_sources(value: ast.AST) -> Optional[list[ast.AST]]:
    """What a built row's slots come from, or None if ``value`` is not a
    row: a tuple display's elements, or the terms of a concatenation of
    whole source rows and slices of them."""
    if isinstance(value, ast.Tuple):
        return list(value.elts)
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        left, right = row_sources(value.left), row_sources(value.right)
        return None if left is None or right is None else left + right
    if isinstance(value, ast.Name) or (
        isinstance(value, ast.Subscript) and isinstance(value.slice, ast.Slice)
    ):
        return [value]
    return None


def _built(node: ast.AST) -> Optional[tuple[str, ast.AST]]:
    """``(name, value)`` when ``node`` is ``o<N> = <row>`` (row_sources)."""
    if isinstance(node, ast.Assign) and row_sources(node.value) is not None:
        target = node.targets[0]
        if isinstance(target, ast.Name) and _ROW.match(target.id):
            return target.id, node.value
    return None


def _row_built_once(nodes: list[ast.AST]) -> _Found:
    read = {
        n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for name, display in filter(None, map(_built, nodes)):
        if name not in read:
            yield "row-built-once", display.lineno, f"`{name}` is built and never read"
    for loop in nodes:
        if not (isinstance(loop, ast.For) and is_row_loop(loop)):
            continue
        own = dict(filter(None, map(_built, _own(loop))))
        for name, display in own.items():
            picked = {
                ast.unparse(e.value if isinstance(e, ast.Subscript) else e)
                if isinstance(e, (ast.Subscript, ast.Name)) else False
                for e in row_sources(display) or ()
            }
            if len(picked) == 1 and picked <= own.keys():
                yield "row-built-once", display.lineno, (
                    f"`{name}` only permutes `{picked.pop()}`, built in the "
                    f"same loop body: one row, two tuples"
                )


def _row_loop_closures(nodes: list[ast.AST]) -> _Found:
    for node in (n for loop in filter(is_row_loop, nodes) for n in ast.walk(loop)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and _CLOSURE.match(func.id):
            yield "row-loop-closures", func.lineno, (
                f"a row loop calls the expression closure `{func.id}`; "
                f"the plan has no IN-subquery or unsafe literal"
            )


def _callees(node: ast.AST) -> Iterator[ast.Call]:
    """Calls in ``node`` of something that may see or move the clock."""
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name):
            if func.id not in _BUILTINS and not _SILENT.match(func.id):
                yield call
        elif not (isinstance(func, ast.Attribute) and func.attr in _SILENT_METHODS):
            yield call


def _foreign(stmt: ast.stmt) -> bool:
    """``stmt`` runs other code: a yield, or a call that is not silent."""
    if isinstance(stmt, (ast.For, ast.If, ast.While, ast.Try, ast.FunctionDef)):
        return False  # their statements are checked where they stand
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(stmt)
    ) or any(_callees(stmt))


def _clock_locals(nodes: list[ast.AST]) -> _Found:
    skip = {n for stmt in nodes if _is_register(stmt) for n in ast.walk(stmt)}
    # (a) a row loop charges on the registers alone.
    for loop in filter(is_row_loop, nodes):
        for node in _own(loop, skip):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and _CLK.match(node.value.id)
            ) or (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and _CCH.match(node.value.id)
            ):
                yield "clock-locals", node.lineno, (
                    f"a row loop reads the clock itself: `{ast.unparse(node)}`"
                )
    # (b) other code runs only while the registers are stored, in a
    # program that keeps them.
    if not any(
        isinstance(n, ast.Name) and n.id == "now" and isinstance(n.ctx, ast.Store)
        for n in nodes
    ):
        return
    for stmts in _blocks(nodes):
        for i, stmt in enumerate(stmts):
            before = i > 0 and _is_store(stmts[i - 1])
            after = i + 1 < len(stmts) and _is_reload(stmts[i + 1])
            if _foreign(stmt) and not (before and after):
                yield "clock-locals", stmt.lineno, (
                    f"`{ast.unparse(stmt)[:60]}` runs other code without "
                    f"the store before it and the reload after it"
                )
            head = getattr(stmt, "iter", None) or getattr(stmt, "test", None)
            if head is None or not any(_callees(head)):
                continue
            if not (
                isinstance(stmt, ast.For)
                and before
                and after
                and _is_reload(stmt.body[0])
                and _is_store(stmt.body[-1])
            ):
                yield "clock-locals", stmt.lineno, (
                    f"`{ast.unparse(stmt).splitlines()[0][:60]}` steps other "
                    f"code without the registers stored around each step"
                )
    # ... and an exception leaves through a store of live registers.
    run = next((n for n in nodes if isinstance(n, ast.FunctionDef)), None)
    last = run.body[-1] if run is not None else None
    guard = last.finalbody[0] if isinstance(last, ast.Try) else None
    if not (
        isinstance(guard, ast.If)
        and ast.unparse(guard.test) == "now is not None"
        and _is_store(guard.body[0])
    ):
        yield "clock-locals", getattr(last, "lineno", 1), (
            "the program does not end in `try: ... finally:` storing live registers"
        )


def _closed_vocabulary(nodes: list[ast.AST]) -> _Found:
    names = [n for n in nodes if isinstance(n, ast.Name)]
    known = {n.id for n in names if not isinstance(n.ctx, ast.Load)}
    known |= {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
    known |= _ENV_NAMES | _BUILTINS
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield "closed-vocabulary", node.lineno, f"`{ast.unparse(node)}`"
    for name in names:
        if name.id not in known and not name.id.startswith("_g_"):
            yield "closed-vocabulary", name.lineno, (
                f"`{name.id}` is not a compiler binding or an allowed builtin"
            )


def check_program(
    source: str, monitored: bool, closures: bool = False
) -> list[Violation]:
    """Every broken promise in one generated program's text (``closures``:
    the plan holds an IN-subquery or a literal outside
    ``fused._SAFE_LITERALS``, which keep their ``compile_expr`` closures)."""
    nodes = list(ast.walk(ast.parse(source)))
    found = {
        *_pulse_flush(nodes),
        *_page_loop_pulse(nodes),
        *_row_loop_counts(nodes, monitored),
        *_clock_locals(nodes),
        *_row_built_once(nodes),
        *(() if closures else _row_loop_closures(nodes)),
        *_closed_vocabulary(nodes),
    }
    mode = "monitored" if monitored else "plain"
    return [
        Violation(rule, f"{mode} program line {line}: {message}")
        for rule, line, message in sorted(found)
    ]
