"""The determinism-effect checker: REPRO110 and REPRO111.

Every function in ``core/`` and ``executor/`` must be *deterministic*:
given the same virtual-clock state and inputs it performs the same
computation.  The checker infers a nondeterminism effect for every
function in the tree from its own frame, closes it transitively over the
call graph, and rejects any enforced function that can reach a source:

* **wall-clock** — ``time.time`` / ``monotonic`` / ``perf_counter`` ...,
  ``datetime.now`` / ``utcnow`` / ``today`` (REPRO001's vocabulary,
  now enforced interprocedurally);
* **unseeded-random** — module-level ``random.*`` calls, zero-argument
  ``random.Random()``, ``random.SystemRandom``, and direct calls to
  names imported from :mod:`random` (``random.Random(seed)`` is fine —
  all randomness must flow from a seed);
* **environment** — ``os.environ`` / ``os.getenv`` / ``os.urandom``;
* **uuid** / **secrets** — inherently nondeterministic stdlib modules;
* **salted-hash** — the builtin ``hash()``: ``PYTHONHASHSEED`` salts
  ``str`` hashing per process, so any value derived from ``hash()``
  (partition routing, sampling) differs across runs;
* **threading** — OS scheduling decides interleavings the virtual clock
  cannot replay.

Unresolved calls are assumed deterministic (the call graph's documented
may-edge contract); the per-file lint pass bounds the damage of that
assumption from the other side.

A transitive violation is reported at the point nondeterminism *enters*
the enforced scope: an enforced function with no own sources is flagged
only when none of its impure callees is itself enforced (otherwise the
callee's own finding — or its ``noqa`` — already covers the path).

``REPRO111`` (**set-iteration-order**) is frame-local: iterating a set
display, a set comprehension, or a ``set(...)`` call in enforced code
feeds set ordering into results.  Set *membership* is fine; iterate
``sorted(...)`` when order can matter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.flow.callgraph import (
    CallGraph,
    FunctionInfo,
    FunctionNode,
    dotted_name,
)
from repro.analysis.flow.findings import FlowFinding, rel_path, sort_findings

_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "time_ns",
     "monotonic_ns", "perf_counter_ns", "localtime", "gmtime"}
)
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
_ENV_OS_ATTRS = frozenset({"getenv", "urandom"})

#: Module prefixes the effect discipline is enforced for.
_ENFORCED_PREFIXES = ("repro.core", "repro.executor")


@dataclass(frozen=True)
class EffectSource:
    """One nondeterminism source in a function's own frame."""

    line: int
    kind: str
    detail: str


class _SourceScanner(ast.NodeVisitor):
    """Finds nondeterminism sources in one frame (no nested defs)."""

    def __init__(self, random_imports: frozenset[str]) -> None:
        #: Local names bound by ``from random import <name>``.
        self._random_imports = random_imports
        self.sources: list[EffectSource] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def _add(self, line: int, kind: str, detail: str) -> None:
        self.sources.append(EffectSource(line=line, kind=kind, detail=detail))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        head, _, tail = dotted.rpartition(".")
        line = node.lineno
        if head == "time" and tail in _WALL_CLOCK_TIME_ATTRS:
            self._add(line, "wall-clock", dotted)
        elif (
            tail in _WALL_CLOCK_DATETIME_ATTRS
            and head.split(".")[-1] in ("datetime", "date")
        ):
            self._add(line, "wall-clock", dotted)
        elif head == "random":
            if tail == "Random":
                if not node.args and not node.keywords:
                    self._add(line, "unseeded-random", "random.Random()")
            else:
                self._add(line, "unseeded-random", dotted)
        elif head == "os" and tail in _ENV_OS_ATTRS:
            self._add(line, "environment", dotted)
        elif head in ("uuid", "secrets"):
            self._add(line, head, dotted)
        elif head == "threading" or head.startswith("threading."):
            self._add(line, "threading", dotted)
        elif not head:
            if dotted == "hash":
                self._add(line, "salted-hash", "hash()")
            elif dotted in self._random_imports:
                if dotted == "Random":
                    if not node.args and not node.keywords:
                        self._add(line, "unseeded-random", "Random()")
                else:
                    self._add(line, "unseeded-random", f"random.{dotted}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if dotted_name(node) == "os.environ":
            self._add(node.lineno, "environment", "os.environ")
        self.generic_visit(node)


def _random_imports(graph: CallGraph, module: str) -> frozenset[str]:
    imports = graph.module_imports.get(module, {})
    return frozenset(
        local
        for local, target in imports.items()
        if target.startswith("random.")
    )


def own_sources(graph: CallGraph, info: FunctionInfo) -> tuple[EffectSource, ...]:
    """Nondeterminism sources in the function's own frame."""
    if info.node is None:
        return ()
    scanner = _SourceScanner(_random_imports(graph, info.module))
    for stmt in info.node.body:
        scanner.visit(stmt)
    return tuple(sorted(scanner.sources, key=lambda s: (s.line, s.detail)))


def _enforced(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _ENFORCED_PREFIXES
    )


# ----------------------------------------------------------------------
# REPRO111: frame-local set-iteration-order


def _is_set_expr(node: ast.AST, set_locals: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_locals


class _SetIterScanner(ast.NodeVisitor):
    def __init__(self) -> None:
        self.set_locals: set[str] = set()
        self.hits: list[int] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value, set()):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_locals.add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self.set_locals):
            self.hits.append(node.iter.lineno)
        self.generic_visit(node)

    def visit_comprehension_node(self, node: ast.AST) -> None:
        generators = getattr(node, "generators", [])
        for comp in generators:
            if _is_set_expr(comp.iter, self.set_locals):
                self.hits.append(comp.iter.lineno)
        self.generic_visit(node)

    visit_ListComp = visit_comprehension_node
    visit_DictComp = visit_comprehension_node
    visit_GeneratorExp = visit_comprehension_node


def _set_iteration_hits(node: FunctionNode) -> list[int]:
    scanner = _SetIterScanner()
    for stmt in node.body:
        scanner.visit(stmt)
    return sorted(scanner.hits)


# ----------------------------------------------------------------------
# the checker


def analyze_effects(
    graph: CallGraph, repo_root: Optional[Path] = None
) -> list[FlowFinding]:
    """REPRO110/111 over the enforced scope (``core/`` + ``executor/``)."""
    sources_by_fn = {
        q: own_sources(graph, info) for q, info in graph.functions.items()
    }
    impure = {q: bool(srcs) for q, srcs in sources_by_fn.items()}
    worklist = [q for q, is_impure in impure.items() if is_impure]
    pending = set(worklist)
    while worklist:
        target = worklist.pop()
        pending.discard(target)
        for caller in graph.callers(target):
            if not impure.get(caller, False):
                impure[caller] = True
                if caller not in pending:
                    worklist.append(caller)
                    pending.add(caller)

    source_fns = frozenset(q for q, srcs in sources_by_fn.items() if srcs)
    findings: list[FlowFinding] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        if not _enforced(info.module):
            continue
        path = rel_path(info.path, repo_root)
        if info.node is not None:
            for line in _set_iteration_hits(info.node):
                findings.append(
                    FlowFinding(
                        rule="REPRO111",
                        path=path,
                        function=qualname,
                        line=line,
                        message=(
                            "iteration over a set feeds its ordering into "
                            "results; iterate sorted(...) or a list/dict"
                        ),
                    )
                )
        if not impure.get(qualname, False):
            continue
        srcs = sources_by_fn[qualname]
        if srcs:
            for src in srcs:
                findings.append(
                    FlowFinding(
                        rule="REPRO110",
                        path=path,
                        function=qualname,
                        line=src.line,
                        message=(
                            f"nondeterminism source in enforced scope: "
                            f"{src.kind} ({src.detail})"
                        ),
                    )
                )
            continue
        # Transitive only: report where nondeterminism *enters* the
        # enforced scope; paths through enforced callees are covered by
        # the callee's own finding (or its noqa).
        impure_callees = [
            c for c in graph.callees(qualname) if impure.get(c, False)
        ]
        if any(
            _enforced(graph.functions[c].module)
            for c in impure_callees
            if c in graph.functions
        ):
            continue
        witness = graph.witness_forward(qualname, source_fns)
        if not witness:
            continue
        terminal = witness[-1]
        first = sources_by_fn[terminal][0]
        findings.append(
            FlowFinding(
                rule="REPRO110",
                path=path,
                function=qualname,
                line=info.line,
                message=(
                    f"transitively reaches nondeterminism source "
                    f"{first.kind} ({first.detail}) in {terminal}"
                ),
                witness=witness,
            )
        )
    return sort_findings(findings)
