"""Repo-specific lint rules (stdlib :mod:`ast` only).

Each rule is a function ``(tree, ctx) -> list[LintFinding]`` registered in
:data:`LINT_RULES`.  Rules are deliberately narrow: they encode *this*
codebase's correctness conventions, not general style — style belongs to
ruff (configured in ``pyproject.toml``).

Rules
-----

(Gaps in the numbering are retired IDs; they are not reused.)

``REPRO001`` **no-wall-clock** — modules under ``core/`` or ``executor/``
must never read the host's wall clock (``time.time()``,
``time.monotonic()``, ``datetime.now()``, ...).  All timing flows through
the virtual clock (:mod:`repro.sim.clock`); a single wall-clock read makes
experiments non-deterministic and progress speeds meaningless.

``REPRO002`` **no-float-progress-eq** — no ``==`` / ``!=`` against float
literals, or on names that look like progress fractions
(``*fraction*``, ``*progress*``, ``*percent*``, ``*_pct``).  Progress
fractions accumulate float error; exact comparison is a latent bug.
Compare with tolerances or ``math.isclose``.

``REPRO003`` **no-mutable-default** — no mutable default arguments
(list/dict/set displays, comprehensions, or ``list()``/``dict()``/
``set()`` calls).  The default is evaluated once and shared across calls.

``REPRO004`` **import-layering** — the package layering is one-way:
``storage`` → ``executor`` → ``core`` → ``bench`` (low to high).  A module
may import same-layer or lower-layer packages only; back-edges (storage
importing executor, executor importing core, ...) are structural debt the
segment verifier cannot untangle later.

``REPRO005`` **no-adhoc-logging** — modules under ``core/`` or
``executor/`` must not ``print()`` or use the :mod:`logging` module.
Diagnostics from the engine flow through the typed trace events of
:mod:`repro.obs` (emit on the attached ``TraceBus``), which keeps the
hot path silent, the output machine-readable, and the timestamps on the
virtual clock.

``REPRO007`` **no-blanket-except** — modules under ``core/`` or
``executor/`` must not catch blindly: no bare ``except:``, and no
``except Exception`` / ``except BaseException`` (alone or inside a
tuple).  Handlers must name types from the :mod:`repro.errors` taxonomy
(or concrete stdlib types) so transient faults stay distinguishable from
fatal ones — a blanket handler deep in the engine can swallow an
injected :class:`~repro.errors.TransientIOError` that the disk's retry
machinery, the scheduler's containment boundary, or a test harness
needed to see.  The few *deliberate* boundaries (the indicator's
degrade-don't-die wrappers) carry an explanatory ``# noqa: REPRO007``.

``REPRO008`` **no-unseeded-random** — outside ``sim/``, ``fault/`` and
test code, no unseeded randomness: zero-argument ``random.Random()``
(seeded from the OS), ``random.SystemRandom`` (always OS entropy), and
module-level ``random.*`` calls (the hidden global stream, including
``random.seed``).  Every stochastic component takes an explicit
``random.Random(seed)`` so the same configuration replays the identical
run — the determinism contract the effect checker
(:mod:`repro.analysis.flow.effects`) enforces transitively for the
engine core.  ``random.Random(seed)`` with an argument is fine anywhere.

``REPRO009`` **no-per-row-dispatch** — inside the *known-hot* driver
loops (an explicit allowlist of functions that run once per output row:
the single-query driver, the scheduler's slice loop), no
``isinstance(...)`` dispatch and no deep (three-or-more-component)
attribute-chain calls inside a loop body.
Item-kind dispatch in these loops is by identity (``item is PULSE``,
``type(item) is Batch``), and loop-invariant bound methods are hoisted
to locals before the loop — the idiom that keeps the batch engine's
real-time win from leaking back out through the drivers.  Deliberate
exceptions carry ``# noqa: REPRO009``.

``REPRO011`` **no-raw-scheduler** — no direct
``CooperativeScheduler(...)`` construction outside ``service/`` and
``sched/``.  A raw scheduler has no admission control, no tenant
accounting and no shedding loop: queries submitted to one bypass every
overload protection the service layer exists to provide.  Production
code obtains a scheduler through :class:`repro.service.QueryService`
(``db.service()``) or the :class:`repro.api.Session` facade; the
``sched`` package itself and test files are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

#: Wall-clock attributes of the ``time`` module that REPRO001 flags.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "time_ns",
     "monotonic_ns", "perf_counter_ns"}
)
#: Wall-clock constructors of the ``datetime`` module.
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: Packages REPRO001 applies to (the simulated-time core of the engine;
#: ``estimators`` runs inside the indicator's tick path, so the same
#: no-wall-clock / silent / typed-errors contracts apply).
_CLOCKED_PACKAGES = frozenset({"core", "executor", "estimators"})

#: Name fragments that mark a value as a progress fraction for REPRO002.
_FRACTION_NAME_HINTS = ("fraction", "progress", "percent")
_FRACTION_NAME_SUFFIXES = ("_pct",)

#: One-way package layering for REPRO004, low to high.
LAYER_ORDER = ("storage", "executor", "core", "bench")
_LAYER_RANK = {name: rank for rank, name in enumerate(LAYER_ORDER)}


@dataclass(frozen=True)
class LintFinding:
    """One lint rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintContext:
    """Per-file facts the rules dispatch on."""

    path: str
    #: The repo package directories this file sits under (e.g. ("core",)).
    packages: tuple[str, ...]

    def layer(self) -> Optional[int]:
        """The file's layering rank, or None if it is outside the layers."""
        for part in self.packages:
            if part in _LAYER_RANK:
                return _LAYER_RANK[part]
        return None


RuleFn = Callable[[ast.AST, LintContext], list[LintFinding]]

#: rule id -> (short name, check function); populated by ``@_rule``.
LINT_RULES: dict[str, tuple[str, RuleFn]] = {}


def _rule(rule_id: str, name: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        LINT_RULES[rule_id] = (name, fn)
        return fn

    return register


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# REPRO001 — no wall-clock in core/ and executor/


@_rule("REPRO001", "no-wall-clock")
def _check_wall_clock(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if not any(p in _CLOCKED_PACKAGES for p in ctx.packages):
        return []
    out = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO001",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"wall-clock read {what!r}; use the virtual clock "
                f"(sim.clock) instead",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME_ATTRS:
                        flag(node, f"time.{alias.name}")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            head, _, tail = dotted.rpartition(".")
            if head == "time" and tail in _WALL_CLOCK_TIME_ATTRS:
                flag(node, dotted)
            elif (
                tail in _WALL_CLOCK_DATETIME_ATTRS
                and head.split(".")[-1] in ("datetime", "date")
            ):
                flag(node, dotted)
    return out


# ----------------------------------------------------------------------
# REPRO002 — no float equality on progress fractions


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # -0.5 parses as UnaryOp(USub, Constant(0.5))
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


def _fraction_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    lowered = name.lower()
    if any(h in lowered for h in _FRACTION_NAME_HINTS):
        return name
    if lowered.endswith(_FRACTION_NAME_SUFFIXES):
        return name
    return None


@_rule("REPRO002", "no-float-progress-eq")
def _check_float_equality(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if _is_float_literal(side):
                    out.append(
                        LintFinding(
                            rule="REPRO002",
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message="exact equality against a float literal; "
                            "use a tolerance (math.isclose)",
                        )
                    )
                    break
                name = _fraction_name(side)
                if name is not None:
                    out.append(
                        LintFinding(
                            rule="REPRO002",
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=f"exact equality on progress fraction "
                            f"{name!r}; use a tolerance (math.isclose)",
                        )
                    )
                    break
    return out


# ----------------------------------------------------------------------
# REPRO003 — no mutable default arguments


_MUTABLE_DISPLAYS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "deque"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


@_rule("REPRO003", "no-mutable-default")
def _check_mutable_defaults(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                name = getattr(node, "name", "<lambda>")
                out.append(
                    LintFinding(
                        rule="REPRO003",
                        path=ctx.path,
                        line=default.lineno,
                        col=default.col_offset,
                        message=f"mutable default argument in {name!r}; "
                        f"default to None (or use dataclasses.field)",
                    )
                )
    return out


# ----------------------------------------------------------------------
# REPRO004 — one-way import layering


def _imported_layer(module: str) -> Optional[tuple[str, int]]:
    """The layering rank a ``repro.X...`` import lands in, if any."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    pkg = parts[1]
    rank = _LAYER_RANK.get(pkg)
    return (pkg, rank) if rank is not None else None


@_rule("REPRO004", "import-layering")
def _check_import_layering(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    own_layer = ctx.layer()
    if own_layer is None:
        return []
    out = []

    def flag(node: ast.AST, pkg: str) -> None:
        own = LAYER_ORDER[own_layer]
        out.append(
            LintFinding(
                rule="REPRO004",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"layering back-edge: {own!r} must not import "
                f"{pkg!r} (allowed direction: "
                f"{' -> '.join(LAYER_ORDER)})",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                hit = _imported_layer(alias.name)
                if hit is not None and hit[1] > own_layer:
                    flag(node, hit[0])
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            hit = _imported_layer(node.module)
            if hit is None and node.module == "repro":
                for alias in node.names:
                    rank = _LAYER_RANK.get(alias.name)
                    if rank is not None and rank > own_layer:
                        flag(node, alias.name)
            elif hit is not None and hit[1] > own_layer:
                flag(node, hit[0])
    return out


# ----------------------------------------------------------------------
# REPRO005 — no print / ad-hoc logging in core/ and executor/

#: Packages REPRO005 applies to (same silent-engine core as REPRO001).
_SILENT_PACKAGES = _CLOCKED_PACKAGES


@_rule("REPRO005", "no-adhoc-logging")
def _check_adhoc_logging(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if not any(p in _SILENT_PACKAGES for p in ctx.packages):
        return []
    out = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO005",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"ad-hoc output {what!r} in the engine core; emit a "
                f"typed event on the TraceBus (repro.obs) instead",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "logging":
                    flag(node, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and (
                node.module.split(".")[0] == "logging"
            ):
                flag(node, f"from {node.module} import ...")
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                flag(node, "print()")
            else:
                dotted = _dotted(node.func)
                if dotted is not None and dotted.split(".")[0] == "logging":
                    flag(node, f"{dotted}()")
    return out


# ----------------------------------------------------------------------
# REPRO007 — no bare / blanket except in core/ and executor/

#: Packages REPRO007 applies to (same engine core as REPRO001/REPRO005).
_TAXONOMY_PACKAGES = _CLOCKED_PACKAGES
#: Exception names that catch everything (or nearly so).
_BLANKET_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _blanket_name(node: ast.AST) -> Optional[str]:
    """The blanket exception name a handler clause names, if any."""
    if isinstance(node, ast.Name) and node.id in _BLANKET_EXCEPTION_NAMES:
        return node.id
    dotted = _dotted(node)
    if dotted is not None and dotted.split(".")[-1] in _BLANKET_EXCEPTION_NAMES:
        return dotted
    return None


@_rule("REPRO007", "no-blanket-except")
def _check_blanket_except(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if not any(p in _TAXONOMY_PACKAGES for p in ctx.packages):
        return []
    out = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO007",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"blanket handler {what}; catch types from the "
                f"repro.errors taxonomy (transient vs fatal), or mark a "
                f"deliberate boundary with '# noqa: REPRO007'",
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        clause = node.type
        if clause is None:
            flag(node, "bare 'except:'")
        elif isinstance(clause, ast.Tuple):
            for element in clause.elts:
                name = _blanket_name(element)
                if name is not None:
                    flag(node, f"'except (..., {name}, ...)'")
                    break
        else:
            name = _blanket_name(clause)
            if name is not None:
                flag(node, f"'except {name}'")
    return out


# ----------------------------------------------------------------------
# REPRO008 — no unseeded randomness outside sim/, fault/ and tests

#: Packages allowed to own randomness (always behind explicit seeds).
_RANDOM_EXEMPT_PACKAGES = frozenset({"sim", "fault"})


def _random_exempt(ctx: LintContext) -> bool:
    if any(p in _RANDOM_EXEMPT_PACKAGES for p in ctx.packages):
        return True
    path = ctx.path.replace("\\", "/")
    parts = path.split("/")
    return any(p in ("tests", "test") for p in parts) or parts[-1].startswith(
        "test_"
    )


@_rule("REPRO008", "no-unseeded-random")
def _check_unseeded_random(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if _random_exempt(ctx):
        return []
    out = []

    def flag(node: ast.AST, what: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO008",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"unseeded randomness {what!r}; draw from an "
                f"explicitly seeded random.Random(seed) so runs replay "
                f"deterministically",
            )
        )

    #: local name -> original name, for ``from random import ...``.
    from_random: dict[str, str] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == "random"
        ):
            for alias in node.names:
                if alias.name != "*":
                    from_random[alias.asname or alias.name] = alias.name

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.rpartition(".")
        if head == "random":
            origin = tail
        elif head == "" and tail in from_random:
            origin = from_random[tail]
        else:
            continue
        if origin == "Random":
            if not node.args and not node.keywords:
                flag(node, f"{dotted}() with no seed")
        elif origin == "SystemRandom":
            flag(node, dotted)
        else:
            flag(node, f"{dotted}() on the global stream")
    return out


# ----------------------------------------------------------------------
# REPRO009 — no per-row dispatch overhead in known-hot driver loops

#: The allowlist of known-hot functions: (path suffix, function name).
#: These are the loops that execute once per output row / batch across
#: every engine — the places where one stray isinstance() or repeated
#: deep attribute lookup costs a measurable slice of the batch engine's
#: real-time win.  Extend this list when a new per-row driver loop is
#: added; the rule deliberately checks nothing outside it.
HOT_LOOP_FUNCTIONS: frozenset[tuple[str, str]] = frozenset(
    {
        # single-query drivers: the result-collection loops
        ("executor/runtime.py", "run_query"),
        ("executor/runtime.py", "execute"),
        # cooperative scheduler: the per-slice item loop
        ("sched/scheduler.py", "_run_slice"),
    }
)

#: Attribute-chain call depth from which REPRO009 demands hoisting
#: (``a.b(...)`` is fine, ``a.b.c(...)`` re-resolves two lookups per row).
_HOT_LOOP_CHAIN_DEPTH = 3


def _hot_loop_functions(tree: ast.AST, ctx: LintContext):
    """The allowlisted function bodies present in this file."""
    path = ctx.path.replace("\\", "/")
    names = {
        fn for suffix, fn in HOT_LOOP_FUNCTIONS if path.endswith(suffix)
    }
    if not names:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in names
        ):
            yield node


@_rule("REPRO009", "no-per-row-dispatch")
def _check_hot_loop_dispatch(
    tree: ast.AST, ctx: LintContext
) -> list[LintFinding]:
    out = []

    def flag(node: ast.AST, message: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO009",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
            )
        )

    for fn in _hot_loop_functions(tree, ctx):
        loops = [
            n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))
        ]
        for loop in loops:
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                ):
                    flag(
                        node,
                        f"isinstance() in the hot loop of {fn.name}(); "
                        f"dispatch on identity instead "
                        f"(item is PULSE / type(item) is Batch)",
                    )
                    continue
                dotted = _dotted(node.func)
                if (
                    dotted is not None
                    and dotted.count(".") >= _HOT_LOOP_CHAIN_DEPTH - 1
                ):
                    flag(
                        node,
                        f"per-row attribute chain {dotted!r} in the hot "
                        f"loop of {fn.name}(); hoist the bound method to "
                        f"a local before the loop",
                    )
    return out


# ----------------------------------------------------------------------
# REPRO011 — no raw CooperativeScheduler construction outside the service

#: Packages allowed to construct the scheduler directly: the scheduler's
#: own package and the service layer that wraps it.
_SCHEDULER_OWNER_PACKAGES = frozenset({"sched", "service"})


def _scheduler_exempt(ctx: LintContext) -> bool:
    if any(p in _SCHEDULER_OWNER_PACKAGES for p in ctx.packages):
        return True
    path = ctx.path.replace("\\", "/")
    parts = path.split("/")
    return any(p in ("tests", "test") for p in parts) or parts[-1].startswith(
        "test_"
    )


@_rule("REPRO011", "no-raw-scheduler")
def _check_raw_scheduler(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if _scheduler_exempt(ctx):
        return []
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            dotted = _dotted(node.func)
            name = dotted.split(".")[-1] if dotted is not None else None
        if name == "CooperativeScheduler":
            out.append(
                LintFinding(
                    rule="REPRO011",
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message="raw CooperativeScheduler() bypasses admission "
                    "control, tenant accounting and shedding; go through "
                    "db.service() / Session (repro.service, repro.api)",
                )
            )
    return out
