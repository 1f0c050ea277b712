"""Interprocedural flow analysis for the cooperative engine.

The per-plan verifier (:mod:`repro.analysis.invariants`) and the per-file
lint pass (:mod:`repro.analysis.lint`) both reason about one artifact at a
time.  Since the executor became a coroutine over a cooperative scheduler,
the correctness story spans *interleavings*: monotone progress and
deterministic replay hold only if no read-modify-write on shared engine
state straddles a scheduling point, and nothing reachable from ``core/``
or ``executor/`` can introduce nondeterminism.  This package proves both
statically, from the stdlib :mod:`ast` alone:

* :mod:`~repro.analysis.flow.callgraph` — a call graph over ``src/repro``
  (name/self/alias/unique-method resolution, virtual dispatch over the
  ``Operator`` hierarchy) with each frame's own yield lines.
* :mod:`~repro.analysis.flow.shared_state` — the ownership registry of
  shared mutable engine objects (buffer pool, disk, clock, trace bus,
  catalog, scheduler task table).
* :mod:`~repro.analysis.flow.atomicity` — REPRO100..102 hazards with
  call-path witnesses.
* :mod:`~repro.analysis.flow.effects` — REPRO110/111: the determinism
  effect checker for ``core/`` + ``executor/``.
* :mod:`~repro.analysis.flow.findings` — the finding type and its
  suppression: a ``noqa`` comment on the reported line, reason mandatory.

These passes read the hand-written source.  The program a query actually
runs is the text :mod:`repro.executor.fused` generates, which no pass over
``src/`` can see; :mod:`repro.analysis.generated` checks that text, plan
by plan, under ``python -m repro.analysis verify``.
"""

from __future__ import annotations

from repro.analysis.flow.atomicity import analyze_races
from repro.analysis.flow.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.flow.effects import analyze_effects
from repro.analysis.flow.findings import FlowFinding, apply_noqa, render_flow_findings
from repro.analysis.flow.shared_state import SHARED_STATE_REGISTRY, SharedObject

__all__ = [
    "CallGraph",
    "FlowFinding",
    "FunctionInfo",
    "SHARED_STATE_REGISTRY",
    "SharedObject",
    "analyze_effects",
    "analyze_races",
    "apply_noqa",
    "build_callgraph",
    "render_flow_findings",
]
