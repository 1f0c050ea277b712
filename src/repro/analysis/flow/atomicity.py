"""Atomicity hazards: REPRO100, REPRO101, REPRO102.

The cooperative engine is single-threaded, so the only way state can
change "under" a function is across one of its *own* suspension points —
a ``yield`` / ``yield from`` in its frame (generator semantics; a plain
call never suspends the caller).  Three hazard shapes follow:

``REPRO100`` **unmediated-shared-write** — a raw attribute store to a
registered shared object from outside its owner class.  Even when such a
store is safe today, it bypasses the owner's invariants (restore
pairing, monotonic timestamps, counter consistency) and the analyzer
cannot see the pairing discipline; route it through a mediating owner
method (``set_owner`` / ``set_trace`` / ``set_faults``) or carry a
``noqa`` comment that says why it is safe.

``REPRO101`` **rmw-across-yield** — inside one generator frame, a read
of a registered shared attribute, then a yield, then a write to the same
attribute with no re-read in between: the classic stale-read-modify-
write.  An augmented assignment (``x.attr += 1``) re-reads at the write
site and is therefore not flagged.  Positions are compared by line
number — a deliberate, documented approximation that ignores control
flow (sound for the straight-line accounting code it guards, cheap
enough to run in CI on every push).

``REPRO102`` **yield-in-owner** — a generator method of an owner class
that stores to one of its own registered attributes: the owner's
invariant window is held open across a suspension its callers cannot
see.  Owner mutation must be atomic (plain methods).
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
from repro.analysis.flow.shared_state import (
    SHARED_STATE_REGISTRY,
    SharedObject,
    owner_for_store,
)


@dataclass(frozen=True)
class _Access:
    """One load/store of a registered shared attribute in a frame."""

    line: int
    #: (owner class key, attribute) — the shared location.
    location: tuple[str, str]
    is_store: bool
    #: The store re-reads at the write site (augmented assignment).
    rmw_safe: bool
    receiver: str


def _classify(node: ast.AST) -> Optional[tuple[SharedObject, str, str]]:
    """(owner, attr, receiver text) when ``node`` is ``<...>.alias.attr``."""
    chain = (dotted_name(node) or "").split(".")
    if len(chain) < 2:
        return None
    receiver_tail, attr = chain[-2], chain[-1]
    owner = owner_for_store(receiver_tail, attr)
    if owner is None:
        return None
    return owner, attr, ".".join(chain[:-1])


class _AccessScanner(ast.NodeVisitor):
    """Collects shared-attribute accesses of one frame (no nested defs)."""

    def __init__(self) -> None:
        self.accesses: list[_Access] = []
        #: Attributes stored through a bare ``self`` receiver (REPRO102).
        self.self_stores: list[tuple[int, str]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    # -- stores ---------------------------------------------------------

    def _record_store(self, target: ast.AST, line: int, rmw_safe: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, line, rmw_safe)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, line, rmw_safe)
            return
        node = target
        if isinstance(node, ast.Subscript):
            # ``X.attr[...] = v`` mutates the container behind the attr.
            node = node.value
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self.self_stores.append((line, node.attr))
            hit = _classify(node)
            if hit is not None:
                owner, attr, receiver = hit
                self.accesses.append(
                    _Access(
                        line=line,
                        location=(owner.cls, attr),
                        is_store=True,
                        rmw_safe=rmw_safe,
                        receiver=receiver,
                    )
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target, node.lineno, rmw_safe=False)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store(node.target, node.lineno, rmw_safe=False)
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node.lineno, rmw_safe=True)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_store(target, node.lineno, rmw_safe=False)

    # -- loads ----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            hit = _classify(node)
            if hit is not None:
                owner, attr, receiver = hit
                self.accesses.append(
                    _Access(
                        line=node.lineno,
                        location=(owner.cls, attr),
                        is_store=False,
                        rmw_safe=False,
                        receiver=receiver,
                    )
                )
        self.generic_visit(node)


def _scan_frame(node: FunctionNode) -> _AccessScanner:
    scanner = _AccessScanner()
    for stmt in node.body:
        scanner.visit(stmt)
    return scanner


def _is_owner_frame(info: FunctionInfo, owner: SharedObject) -> bool:
    return info.cls == owner.class_name and info.module == owner.module


def _check_unmediated_stores(
    info: FunctionInfo,
    scanner: _AccessScanner,
    graph: CallGraph,
    path: str,
) -> list[FlowFinding]:
    out: list[FlowFinding] = []
    for access in scanner.accesses:
        if not access.is_store:
            continue
        owner_key, attr = access.location
        owner = next(o for o in SHARED_STATE_REGISTRY if o.cls == owner_key)
        if _is_owner_frame(info, owner):
            continue
        out.append(
            FlowFinding(
                rule="REPRO100",
                path=path,
                function=info.qualname,
                line=access.line,
                message=(
                    f"unmediated store to shared "
                    f"{owner.class_name}.{attr} (via {access.receiver!r}) "
                    f"from outside its owner; use the owner's mediating API"
                ),
                witness=graph.witness_to_root(info.qualname),
            )
        )
    return out


def _check_rmw_across_yield(
    info: FunctionInfo,
    scanner: _AccessScanner,
    path: str,
) -> list[FlowFinding]:
    if not info.is_generator:
        return []
    yield_lines = sorted(info.yields)
    out: list[FlowFinding] = []
    by_location: dict[tuple[str, str], list[_Access]] = {}
    for access in scanner.accesses:
        by_location.setdefault(access.location, []).append(access)
    for location, accesses in sorted(by_location.items()):
        loads = sorted(a.line for a in accesses if not a.is_store)
        stores = [a for a in accesses if a.is_store and not a.rmw_safe]
        for store in sorted(stores, key=lambda a: a.line):
            crossing = [
                y
                for y in yield_lines
                if y < store.line and any(load < y for load in loads)
            ]
            if not crossing:
                continue
            yield_line = max(crossing)
            revalidated = any(
                yield_line < load < store.line for load in loads
            )
            if revalidated:
                continue
            owner_key, attr = location
            owner = next(
                o for o in SHARED_STATE_REGISTRY if o.cls == owner_key
            )
            out.append(
                FlowFinding(
                    rule="REPRO101",
                    path=path,
                    function=info.qualname,
                    line=store.line,
                    message=(
                        f"read of shared {owner.class_name}.{attr} crosses "
                        f"the yield at line {yield_line} before this write "
                        f"with no re-validation (stale read-modify-write)"
                    ),
                )
            )
    return out


def _check_yield_in_owner(
    info: FunctionInfo,
    scanner: _AccessScanner,
    path: str,
) -> list[FlowFinding]:
    if not info.is_generator or info.cls is None:
        return []
    for owner in SHARED_STATE_REGISTRY:
        if not _is_owner_frame(info, owner):
            continue
        touched = sorted(
            {attr for _, attr in scanner.self_stores if attr in owner.attrs}
        )
        if touched:
            return [
                FlowFinding(
                    rule="REPRO102",
                    path=path,
                    function=info.qualname,
                    line=info.line,
                    message=(
                        f"generator method of owner {owner.class_name} "
                        f"stores to registered state "
                        f"({', '.join(touched)}) across its own suspension "
                        f"points; owner mutation must be atomic"
                    ),
                )
            ]
    return []


def analyze_races(
    graph: CallGraph, repo_root: Optional[Path] = None
) -> list[FlowFinding]:
    """Run REPRO100..102 over every function frame in the graph."""
    findings: list[FlowFinding] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        if info.node is None:
            continue
        scanner = _scan_frame(info.node)
        if not scanner.accesses and not scanner.self_stores:
            continue
        path = rel_path(info.path, repo_root)
        findings.extend(_check_unmediated_stores(info, scanner, graph, path))
        findings.extend(_check_rmw_across_yield(info, scanner, path))
        findings.extend(_check_yield_in_owner(info, scanner, path))
    return sort_findings(findings)
