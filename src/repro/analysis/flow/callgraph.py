"""Call-graph construction over the repro source tree (stdlib ``ast``).

The graph is deliberately *may*-directed: an edge means "calling this
function may transfer control there".  Resolution is best-effort and
documented — unresolved calls produce **no** edge and downstream passes
treat them as deterministic, non-yielding leaves (the assumption every
diagnostic in :mod:`~repro.analysis.flow.atomicity` and
:mod:`~repro.analysis.flow.effects` is stated under):

* bare names resolve through enclosing-function locals, module functions
  and classes, then imports;
* ``self.m()`` / ``cls.m()`` resolve through the enclosing class and its
  (resolvable) bases;
* ``mod.f()`` resolves through an imported module alias;
* ``Cls(...)`` resolves to ``Cls.__init__``;
* dotted receivers whose last component is a registered shared-state
  alias (``ctx.buffer_pool.get_page``) resolve through the ownership
  registry's receiver-type map;
* a *plain-name* receiver with a method defined exactly once in the tree
  resolves to that definition, unless the name collides with a common
  builtin-container method;
* a method defined on several classes that all live in one hierarchy
  (``op.rows()`` over the ``Operator`` subclasses) fans out to every
  override — static virtual dispatch.

Yield points are collected per *frame*: a ``yield`` suspends exactly the
function that contains it, so nested ``def``s get their own entries and a
plain call never suspends the caller (generator semantics).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names never resolved by the unique-definition shortcut: they
#: collide with builtin container/file methods, so a lone class method of
#: the same name would capture unrelated receivers.
_GENERIC_METHOD_NAMES = frozenset({
    "append", "add", "get", "pop", "popitem", "items", "keys", "values",
    "sort", "extend", "clear", "update", "copy", "close", "join", "split",
    "strip", "read", "write", "format", "encode", "decode", "index",
    "count", "insert", "remove", "setdefault", "discard", "union",
    "startswith", "endswith", "move_to_end", "reverse", "send", "throw",
})


@dataclass(frozen=True)
class CallSite:
    """One call expression and the definitions it may reach."""

    line: int
    #: Dotted source text of the callee ("self._form_runs", "pull").
    text: str
    #: Resolved callee qualnames; empty means unresolved (no edge).
    targets: tuple[str, ...]


@dataclass
class FunctionInfo:
    """Everything later passes need to know about one function frame."""

    qualname: str
    module: str
    #: Enclosing class name, if any (nested defs inherit it).
    cls: Optional[str]
    name: str
    path: str
    line: int
    is_generator: bool
    #: Line of every ``yield`` / ``yield from`` in this frame.
    yields: tuple[int, ...]
    calls: tuple[CallSite, ...] = field(default=())
    #: AST of the definition, for passes that re-walk the body.
    node: Optional[FunctionNode] = field(default=None, repr=False)


@dataclass
class ClassInfo:
    """One class definition and its resolvable inheritance chain."""

    key: str
    module: str
    name: str
    #: Raw dotted base expressions as written.
    bases: tuple[str, ...]
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)
    #: ClassInfo keys of resolvable bases (linked after collection).
    resolved_bases: tuple[str, ...] = field(default=())


class _ModuleIndex:
    """Per-module name tables used during call resolution."""

    def __init__(self, name: str, path: str) -> None:
        self.name = name
        self.path = path
        #: local name -> dotted target ("repro.executor.base.PULSE" for
        #: from-imports, the module path for plain imports).
        self.imports: dict[str, str] = {}
        #: local function name -> qualname.
        self.functions: dict[str, str] = {}
        #: local class name -> ClassInfo key.
        self.classes: dict[str, str] = {}


class CallGraph:
    """The resolved call graph plus its function/class indexes."""

    def __init__(
        self,
        package: str,
        functions: dict[str, FunctionInfo],
        classes: dict[str, ClassInfo],
        module_imports: Optional[dict[str, dict[str, str]]] = None,
    ) -> None:
        self.package = package
        self.functions = functions
        self.classes = classes
        #: module name -> {local name -> dotted import target}.
        self.module_imports: dict[str, dict[str, str]] = module_imports or {}
        self._callers: dict[str, list[str]] = {}
        for info in functions.values():
            for call in info.calls:
                for target in call.targets:
                    self._callers.setdefault(target, []).append(info.qualname)
        for callers in self._callers.values():
            callers.sort()

    # ------------------------------------------------------------------
    # queries

    def callees(self, qualname: str) -> list[str]:
        info = self.functions.get(qualname)
        if info is None:
            return []
        out: list[str] = []
        for call in info.calls:
            out.extend(call.targets)
        return sorted(set(out))

    def callers(self, qualname: str) -> list[str]:
        return list(self._callers.get(qualname, ()))

    def witness_to_root(self, target: str, limit: int = 12) -> tuple[str, ...]:
        """Shortest caller chain from an entry point (a function nobody in
        the tree calls) down to ``target``, outermost first."""
        seen = {target}
        queue: list[tuple[str, ...]] = [(target,)]
        while queue:
            path = queue.pop(0)
            head = path[0]
            callers = self._callers.get(head, [])
            if not callers or len(path) >= limit:
                return path
            for caller in callers:
                if caller not in seen:
                    seen.add(caller)
                    queue.append((caller, *path))
        return (target,)

    def witness_forward(
        self, start: str, goals: frozenset[str], limit: int = 12
    ) -> tuple[str, ...]:
        """Shortest callee chain from ``start`` to any of ``goals``."""
        if start in goals:
            return (start,)
        seen = {start}
        queue: list[tuple[str, ...]] = [(start,)]
        while queue:
            path = queue.pop(0)
            if len(path) >= limit:
                continue
            for callee in self.callees(path[-1]):
                if callee in seen:
                    continue
                extended = (*path, callee)
                if callee in goals:
                    return extended
                seen.add(callee)
                queue.append(extended)
        return ()


# ----------------------------------------------------------------------
# collection (pass 1)


def dotted_name(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FrameScanner(ast.NodeVisitor):
    """Collects yields and raw call sites of one function frame only.

    Does not descend into nested ``def`` / ``class`` / ``lambda`` — those
    are separate frames with their own scanners.
    """

    def __init__(self) -> None:
        self.yields: list[int] = []
        #: (line, dotted text or None)
        self.raw_calls: list[tuple[int, Optional[str]]] = []
        self.nested: list[FunctionNode] = []

    # -- frame boundaries ----------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested.append(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested.append(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # methods of a nested class are out of frame and out of scope

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- yields and calls ----------------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        self.yields.append(node.lineno)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.yields.append(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.raw_calls.append((node.lineno, dotted_name(node.func)))
        # Still walk the callee expression for nested calls like f(g(x)).
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)


def _module_name(package: str, package_dir: Path, path: Path) -> str:
    rel = path.relative_to(package_dir).with_suffix("")
    parts = [package, *rel.parts]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class _Collected:
    modules: dict[str, _ModuleIndex]
    functions: dict[str, FunctionInfo]
    classes: dict[str, ClassInfo]
    #: function qualname -> raw call sites awaiting resolution.
    raw: dict[str, list[tuple[int, Optional[str]]]]
    #: function qualname -> enclosing local def map (name -> qualname).
    local_defs: dict[str, dict[str, str]]


def _collect_function(
    node: FunctionNode,
    qual_prefix: str,
    cls: Optional[str],
    module: _ModuleIndex,
    out: _Collected,
    enclosing_locals: dict[str, str],
) -> str:
    qualname = f"{qual_prefix}.{node.name}"
    scanner = _FrameScanner()
    for stmt in node.body:
        scanner.visit(stmt)
    info = FunctionInfo(
        qualname=qualname,
        module=module.name,
        cls=cls,
        name=node.name,
        path=module.path,
        line=node.lineno,
        is_generator=bool(scanner.yields),
        yields=tuple(scanner.yields),
        node=node,
    )
    out.functions[qualname] = info
    out.raw[qualname] = scanner.raw_calls
    nested_locals = dict(enclosing_locals)
    out.local_defs[qualname] = nested_locals
    for child in scanner.nested:
        child_qual = _collect_function(
            child, f"{qualname}.<locals>", cls, module, out, nested_locals
        )
        nested_locals[child.name] = child_qual
    return qualname


def _collect_module(tree: ast.Module, module: _ModuleIndex, out: _Collected) -> None:
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    module.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    module.imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                parts = module.name.split(".")
                keep = parts[: max(0, len(parts) - stmt.level)]
                base = ".".join([*keep, base]) if base else ".".join(keep)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = _collect_function(stmt, module.name, None, module, out, {})
            module.functions[stmt.name] = qualname
        elif isinstance(stmt, ast.ClassDef):
            key = f"{module.name}.{stmt.name}"
            bases = tuple(
                b for b in (dotted_name(base) for base in stmt.bases) if b is not None
            )
            cls_info = ClassInfo(
                key=key, module=module.name, name=stmt.name, bases=bases
            )
            out.classes[key] = cls_info
            module.classes[stmt.name] = key
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = _collect_function(
                        item, key, stmt.name, module, out, {}
                    )
                    cls_info.methods[item.name] = qualname


# ----------------------------------------------------------------------
# resolution (pass 2)


class _Resolver:
    def __init__(
        self,
        collected: _Collected,
        receiver_types: dict[str, str],
    ) -> None:
        self.c = collected
        #: receiver alias -> ClassInfo key, from the ownership registry.
        self.receiver_types = {
            alias: key
            for alias, key in receiver_types.items()
            if key in collected.classes
        }
        #: method name -> every (class key, qualname) defining it.
        self.method_defs: dict[str, list[tuple[str, str]]] = {}
        for cls in collected.classes.values():
            for name, qualname in cls.methods.items():
                self.method_defs.setdefault(name, []).append((cls.key, qualname))
        for defs in self.method_defs.values():
            defs.sort()
        self._link_bases()

    def _link_bases(self) -> None:
        for cls in self.c.classes.values():
            module = self.c.modules[cls.module]
            resolved = []
            for base in cls.bases:
                key = self._resolve_class_name(module, base)
                if key is not None:
                    resolved.append(key)
            cls.resolved_bases = tuple(resolved)

    # -- name lookups ---------------------------------------------------

    def _resolve_class_name(
        self, module: _ModuleIndex, dotted: str
    ) -> Optional[str]:
        head, _, rest = dotted.partition(".")
        if not rest:
            if head in module.classes:
                return module.classes[head]
            target = module.imports.get(head)
            if target is not None and target in self.c.classes:
                return target
            return None
        target = module.imports.get(head)
        if target is not None:
            candidate = f"{target}.{rest}"
            if candidate in self.c.classes:
                return candidate
        return None

    def _class_root(self, key: str) -> str:
        seen = set()
        while key not in seen:
            seen.add(key)
            cls = self.c.classes.get(key)
            if cls is None or not cls.resolved_bases:
                return key
            key = cls.resolved_bases[0]
        return key

    def _lookup_method(self, class_key: str, name: str) -> Optional[str]:
        """Find ``name`` on a class or its resolvable bases."""
        seen: set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop(0)
            if key in seen:
                continue
            seen.add(key)
            cls = self.c.classes.get(key)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.resolved_bases)
        return None

    def _resolve_bare(
        self, module: _ModuleIndex, locals_map: dict[str, str], name: str
    ) -> tuple[str, ...]:
        if name in locals_map:
            return (locals_map[name],)
        if name in module.functions:
            return (module.functions[name],)
        class_key: Optional[str] = module.classes.get(name)
        if class_key is None:
            target = module.imports.get(name)
            if target is not None:
                if target in self.c.functions:
                    return (target,)
                if target in self.c.classes:
                    class_key = target
        if class_key is not None:
            init = self._lookup_method(class_key, "__init__")
            return (init,) if init is not None else ()
        return ()

    def _resolve_attribute(
        self,
        module: _ModuleIndex,
        cls: Optional[str],
        dotted: str,
    ) -> tuple[str, ...]:
        parts = dotted.split(".")
        receiver, meth = parts[:-1], parts[-1]
        if meth.startswith("__") and meth.endswith("__"):
            return ()
        if receiver == ["self"] or receiver == ["cls"]:
            if cls is not None:
                found = self._lookup_method(f"{module.name}.{cls}", meth)
                if found is not None:
                    return (found,)
            return ()
        if len(receiver) == 1:
            head = receiver[0]
            # Module alias: tpcr.build_database
            target = module.imports.get(head)
            if target is not None:
                candidate = f"{target}.{meth}"
                if candidate in self.c.functions:
                    return (candidate,)
                if candidate in self.c.classes:
                    init = self._lookup_method(candidate, "__init__")
                    return (init,) if init is not None else ()
                if target in self.c.classes:
                    found = self._lookup_method(target, meth)
                    if found is not None:
                        return (found,)
            # Class name: Cls.method(...)
            if head in module.classes:
                found = self._lookup_method(module.classes[head], meth)
                if found is not None:
                    return (found,)
        # Registered shared-state alias anywhere in the chain's tail:
        # ctx.buffer_pool.get_page, self._disk.read_page, ...
        owner_key = self.receiver_types.get(receiver[-1])
        if owner_key is not None:
            found = self._lookup_method(owner_key, meth)
            if found is not None:
                return (found,)
        if len(receiver) == 1 and not receiver[0].startswith("_"):
            defs = self.method_defs.get(meth, [])
            if defs:
                if len(defs) == 1 and meth not in _GENERIC_METHOD_NAMES:
                    return (defs[0][1],)
                roots = {self._class_root(key) for key, _ in defs}
                if len(roots) == 1 and len(defs) > 1:
                    # Static virtual dispatch over one hierarchy
                    # (op.rows() -> every Operator override).
                    return tuple(qualname for _, qualname in defs)
        return ()

    def resolve(self) -> None:
        for qualname, raw_calls in self.c.raw.items():
            info = self.c.functions[qualname]
            module = self.c.modules[info.module]
            locals_map = self.c.local_defs.get(qualname, {})
            sites: list[CallSite] = []
            for line, dotted in raw_calls:
                if dotted is None:
                    continue
                if "." in dotted:
                    targets = self._resolve_attribute(module, info.cls, dotted)
                else:
                    targets = self._resolve_bare(module, locals_map, dotted)
                sites.append(CallSite(line=line, text=dotted, targets=targets))
            info.calls = tuple(sites)


# ----------------------------------------------------------------------
# public entry point


def build_callgraph(
    package_dir: Union[str, Path],
    package: str = "repro",
    receiver_types: Optional[dict[str, str]] = None,
) -> CallGraph:
    """Parse every module under ``package_dir`` and resolve the call graph.

    ``receiver_types`` maps receiver aliases to class keys
    ("clock" -> "repro.sim.clock.VirtualClock"); it defaults to the
    ownership registry's map.
    """
    root = Path(package_dir)
    if receiver_types is None:
        from repro.analysis.flow.shared_state import receiver_type_map

        receiver_types = receiver_type_map()
    collected = _Collected(
        modules={}, functions={}, classes={}, raw={}, local_defs={}
    )
    for path in sorted(root.rglob("*.py")):
        name = _module_name(package, root, path)
        module = _ModuleIndex(name=name, path=str(path))
        collected.modules[name] = module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _collect_module(tree, module, collected)
    _Resolver(collected, receiver_types).resolve()
    return CallGraph(
        package=package,
        functions=collected.functions,
        classes=collected.classes,
        module_imports={
            name: dict(idx.imports) for name, idx in collected.modules.items()
        },
    )
