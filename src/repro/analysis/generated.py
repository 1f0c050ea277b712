"""Checks on the program a query actually runs.

Production executes the *text* :mod:`repro.executor.fused` generates, which
no pass over ``src/`` can see; ``python -m repro.analysis verify`` compiles
every plan it verifies, monitored and plain, and holds ``FusedQuery.source``
to what that module's docstring promises.  The six checks are defined
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

_Found = Iterator[tuple[str, int, str]]


def _is_pulse(node: ast.AST) -> bool:
    value = node.value if isinstance(node, ast.Yield) else None
    return isinstance(value, ast.Name) and value.id == "PULSE"


def is_row_loop(node: ast.AST) -> bool:
    """A ``for`` over rows: anything but ``for page_no in range(...)``."""
    return isinstance(node, ast.For) and not (
        isinstance(node.iter, ast.Call) and ast.unparse(node.iter.func) == "range"
    )


def _own(loop: ast.For) -> Iterator[ast.AST]:
    """Nodes of ``loop``'s body that run once per iteration of *it*."""
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.For, ast.While, ast.FunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _pulse_flush(nodes: list[ast.AST]) -> _Found:
    for node in nodes:
        for block in ("body", "orelse", "finalbody"):
            stmts = getattr(node, block, None)
            if not isinstance(stmts, list):
                continue  # absent, or the expression of a lambda / if-else
            for prev, stmt in zip([None, *stmts], stmts):
                if isinstance(stmt, ast.Expr) and _is_pulse(stmt.value) and not (
                    isinstance(prev, ast.If)
                    and ast.unparse(prev.test) == "nout"
                    and ast.unparse(prev.body[0]) == "yield _B(out)"
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


def _built(node: ast.AST) -> Optional[tuple[str, ast.Tuple]]:
    """``(name, display)`` when ``node`` is ``o<N> = (...)``."""
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
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
                isinstance(e, ast.Subscript) and ast.unparse(e.value)
                for e in display.elts
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
        *_row_built_once(nodes),
        *(() if closures else _row_loop_closures(nodes)),
        *_closed_vocabulary(nodes),
    }
    mode = "monitored" if monitored else "plain"
    return [
        Violation(rule, f"{mode} program line {line}: {message}")
        for rule, line, message in sorted(found)
    ]
