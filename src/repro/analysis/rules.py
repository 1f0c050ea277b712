"""Repo-specific lint rules (stdlib :mod:`ast` only).

Each rule is a function ``(tree, ctx) -> list[LintFinding]`` registered in
:data:`LINT_RULES`.  Rules are deliberately narrow: they encode *this*
codebase's correctness conventions, not general style — style belongs to
ruff (configured in ``pyproject.toml``).

Rules
-----

(Gaps in the numbering are retired IDs; they are not reused.  ``REPRO001``
no-wall-clock and ``REPRO008`` no-unseeded-random retired into
``REPRO110``; ``REPRO101`` rmw-across-yield into ``REPRO100`` /
``REPRO102``, which between them report its every hit.)

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

The cooperative engine is single-threaded, so the only way state can
change "under" a function is across one of its *own* suspension points —
a ``yield`` / ``yield from`` in its frame (generator semantics; a plain
call never suspends the caller).  Two hazard shapes follow, both read off
the ownership registry in :mod:`repro.analysis.flow.shared_state`:

``REPRO100`` **unmediated-shared-write** — a raw attribute store to a
registered shared object from outside its owner class.  Even when such a
store is safe today, it bypasses the owner's invariants (restore
pairing, monotonic timestamps, counter consistency) and the analyzer
cannot see the pairing discipline; route it through a mediating owner
method (``set_owner`` / ``set_trace`` / ``set_faults``) or carry a
``noqa`` comment that says why it is safe.  This is also what a stale
read-modify-write across a ``yield`` looks like from outside the owner:
the write half is a store through a registered alias.

``REPRO102`` **yield-in-owner** — a generator method of an owner class
that stores to one of its own registered attributes: the owner's
invariant window is held open across a suspension its callers cannot
see.  Owner mutation must be atomic (plain methods).

``REPRO110`` **nondeterministic-effect** — the one determinism rule.
Outside test code, every module must be *deterministic*: given the same
virtual-clock state and inputs it performs the same computation.  Any
reference to a nondeterminism source is reported where it is written:

* **wall-clock** — ``time.time`` / ``monotonic`` / ``perf_counter`` ...,
  ``datetime.now`` / ``utcnow`` / ``today``.  All timing flows through
  the virtual clock (:mod:`repro.sim.clock`); a single wall-clock read
  makes experiments non-deterministic and progress speeds meaningless;
* **unseeded-random** — anything on the :mod:`random` module's hidden
  global stream (including ``random.seed``), ``random.SystemRandom``
  (always OS entropy) and zero-argument ``random.Random()`` (seeded from
  the OS).  Every stochastic component takes an explicit
  ``random.Random(seed)`` so the same configuration replays the
  identical run;
* **environment** — ``os.environ`` / ``os.getenv`` / ``os.urandom``;
* **uuid** / **secrets** — inherently nondeterministic stdlib modules;
* **salted-hash** — the builtin ``hash``: ``PYTHONHASHSEED`` salts
  ``str`` hashing per process, so any value derived from it (partition
  routing, sampling) differs across runs.  A ``def __hash__`` frame is
  exempt — that is the protocol, and a dict never outlives the process;
* **threading** — OS scheduling decides interleavings the virtual clock
  cannot replay;
* **dynamic-import** — ``__import__(...)`` / ``importlib.import_module``:
  a module reached by string is a module this rule cannot name, so
  ``__import__("os").environ`` would otherwise read the environment
  unseen.

Names are resolved through the file's own imports (``import time as t``,
``from time import monotonic``, ``from random import randint as r``), and
importing a source by name is itself reported.  The rule is frame-local:
a helper that reads ``os.environ`` is reported at the read, wherever in
the tree it lives, not at its callers.

``REPRO111`` **set-iteration-order** — in the engine core (``core/``,
``executor/``, ``estimators/``), iterating a set display, a set
comprehension, a ``set(...)`` call or a local bound to one feeds set
ordering into results.  Set *membership* is fine; iterate
``sorted(...)`` when order can matter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable, Iterator, Optional

from repro.analysis.flow.shared_state import SHARED_STATE_REGISTRY, owner_for_store

#: Wall-clock attributes of the ``time`` module that REPRO110 flags.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "time_ns",
     "monotonic_ns", "perf_counter_ns", "localtime", "gmtime"}
)
#: Wall-clock constructors of the ``datetime`` module.
_WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: Environment reads of the ``os`` module.
_ENV_OS_ATTRS = frozenset({"environ", "getenv", "urandom"})
#: The simulated-time core of the engine, which REPRO005/007/111 police
#: (``estimators`` runs inside the indicator's tick path, so the same
#: silent / typed-errors / ordered contracts apply).
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

    def module(self) -> str:
        """The dotted module name, as the ownership registry spells it."""
        return ".".join(("repro", *self.packages, PurePath(self.path).stem))

    def is_test_code(self) -> bool:
        """Under a ``tests/`` directory or named ``test_*.py``."""
        parts = PurePath(self.path).parts
        return any(p in ("tests", "test") for p in parts) or parts[-1].startswith(
            "test_"
        )


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

#: Packages REPRO005 applies to (the silent engine core).
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

#: Packages REPRO007 applies to (same engine core as REPRO005).
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


@_rule("REPRO011", "no-raw-scheduler")
def _check_raw_scheduler(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if ctx.is_test_code() or any(
        p in _SCHEDULER_OWNER_PACKAGES for p in ctx.packages
    ):
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


# ----------------------------------------------------------------------
# Frames — what the atomicity and set-order rules reason about

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of one frame: ``scope``'s subtree with nested scopes
    yielded but not entered (their bodies run in frames of their own)."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _frames(tree: ast.AST) -> Iterator[tuple[ast.AST, Optional[str]]]:
    """Every frame of the module — its body, each class body, def and
    lambda — with the name of the class it is defined in (a def nested in
    a method still belongs to the method's class)."""
    todo: list[tuple[ast.AST, Optional[str]]] = [(tree, None)]
    while todo:
        frame, cls = todo.pop()
        yield frame, cls
        if isinstance(frame, ast.ClassDef):
            cls = frame.name
        todo.extend((n, cls) for n in _own_nodes(frame) if isinstance(n, _SCOPES))


def _stored_attributes(frame: ast.AST) -> Iterator[ast.Attribute]:
    """The attributes a frame assigns, augments or deletes — also through
    one subscript (``X.attr[k] = v`` mutates the container behind attr)."""
    for node in _own_nodes(frame):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(
            node.ctx, ast.Load
        ):
            target = node.value if isinstance(node, ast.Subscript) else node
            if isinstance(target, ast.Attribute):
                yield target


# ----------------------------------------------------------------------
# REPRO100 / REPRO102 — yield-point atomicity over the ownership registry


@_rule("REPRO100", "unmediated-shared-write")
def _check_unmediated_stores(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    out = []
    for frame, cls in _frames(tree):
        for node in _stored_attributes(frame):
            chain = (_dotted(node) or "").split(".")
            if len(chain) < 2:
                continue
            owner = owner_for_store(chain[-2], chain[-1])
            if owner is None or (
                cls == owner.class_name and ctx.module() == owner.module
            ):
                continue
            out.append(
                LintFinding(
                    rule="REPRO100",
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=f"unmediated store to shared "
                    f"{owner.class_name}.{chain[-1]} (via "
                    f"{'.'.join(chain[:-1])!r}) from outside its owner; use "
                    f"the owner's mediating API",
                )
            )
    return out


@_rule("REPRO102", "yield-in-owner")
def _check_yield_in_owner(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    owners = {
        o.class_name: o for o in SHARED_STATE_REGISTRY if o.module == ctx.module()
    }
    if not owners:
        return []
    out = []
    for frame, cls in _frames(tree):
        owner = owners.get(cls or "")
        if owner is None or not isinstance(
            frame, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if not any(
            isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(frame)
        ):
            continue
        touched = sorted(
            {
                node.attr
                for node in _stored_attributes(frame)
                if isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in owner.attrs
            }
        )
        if touched:
            out.append(
                LintFinding(
                    rule="REPRO102",
                    path=ctx.path,
                    line=frame.lineno,
                    col=frame.col_offset,
                    message=f"generator method of owner {owner.class_name} "
                    f"stores to registered state ({', '.join(touched)}) "
                    f"across its own suspension points; owner mutation must "
                    f"be atomic",
                )
            )
    return out


# ----------------------------------------------------------------------
# REPRO110 — no nondeterminism source outside test code


def _import_origins(tree: ast.AST) -> dict[str, str]:
    """local name -> dotted origin, for every name the module's imports
    rebind (``import time as t``, ``from random import randint as r``)."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    origins[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def _nondeterminism(dotted: str) -> Optional[str]:
    """The kind of source the canonical reference ``dotted`` names, if any."""
    head, _, tail = dotted.rpartition(".")
    if head == "time" and tail in _WALL_CLOCK_TIME_ATTRS:
        return "wall-clock"
    if tail in _WALL_CLOCK_DATETIME_ATTRS and head.rpartition(".")[2] in (
        "datetime", "date"
    ):
        return "wall-clock"
    if head == "random" and tail != "Random":  # Random: only when unseeded
        return "unseeded-random"
    if head == "os" and tail in _ENV_OS_ATTRS:
        return "environment"
    if head in ("uuid", "secrets", "threading"):
        return head
    if dotted == "hash":
        return "salted-hash"
    if dotted in ("__import__", "importlib.import_module"):
        return "dynamic-import"
    return None


@_rule("REPRO110", "nondeterministic-effect")
def _check_nondeterminism(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if ctx.is_test_code():
        return []
    out = []

    def flag(node: ast.AST, kind: str, what: str) -> None:
        out.append(
            LintFinding(
                rule="REPRO110",
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=f"nondeterminism source: {kind} ({what}); a replay "
                f"must not depend on the host — use the virtual clock "
                f"(sim.clock), a seeded random.Random(seed), or configuration",
            )
        )

    origins = _import_origins(tree)

    def canonical(dotted: str) -> str:
        first, dot, rest = dotted.partition(".")
        return origins.get(first, first) + dot + rest

    hash_protocol = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__hash__"
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                imported = f"{node.module}.{alias.name}"
                kind = _nondeterminism(imported)
                if kind is not None:
                    flag(node, kind, imported)
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if (
                dotted is not None
                and canonical(dotted) == "random.Random"
                and not (node.args or node.keywords)
            ):
                flag(node, "unseeded-random", f"{dotted}() with no seed")
        elif isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
            node.ctx, ast.Load
        ):
            dotted = _dotted(node)
            kind = _nondeterminism(canonical(dotted)) if dotted else None
            if kind is not None and not (
                kind == "salted-hash" and id(node) in hash_protocol
            ):
                flag(node, kind, dotted or "")
    return out


# ----------------------------------------------------------------------
# REPRO111 — no set-iteration order in the engine core


def _is_set_expr(node: ast.AST, set_locals: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_locals


@_rule("REPRO111", "set-iteration-order")
def _check_set_iteration(tree: ast.AST, ctx: LintContext) -> list[LintFinding]:
    if not any(p in _CLOCKED_PACKAGES for p in ctx.packages):
        return []
    out = []
    for frame, _cls in _frames(tree):
        nodes = list(_own_nodes(frame))
        set_locals = frozenset(
            target.id
            for node in nodes
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, frozenset())
            for target in node.targets
            if isinstance(target, ast.Name)
        )
        for node in nodes:
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                iterables = [comp.iter for comp in node.generators]
            else:
                continue
            for iterable in iterables:
                if _is_set_expr(iterable, set_locals):
                    out.append(
                        LintFinding(
                            rule="REPRO111",
                            path=ctx.path,
                            line=iterable.lineno,
                            col=iterable.col_offset,
                            message="iteration over a set feeds its ordering "
                            "into results; iterate sorted(...) or a list/dict",
                        )
                    )
    return out
