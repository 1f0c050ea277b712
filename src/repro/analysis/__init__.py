"""Static analysis for the progress-indicator engine.

Three pillars, all dependency-free (stdlib only):

* :mod:`repro.analysis.invariants` — a plan/segment **invariant
  verifier**: given an annotated physical plan and the
  :class:`~repro.core.segments.SegmentSpec` list the segment builder
  derived from it, statically check the structural properties the
  paper's estimator silently assumes (Sections 4.2, 4.3 and 4.5).
  :mod:`repro.analysis.gate` wires it in front of query execution, and
  :mod:`repro.analysis.generated` checks the text of the program each
  verified plan compiles to — the code production actually runs.

* :mod:`repro.analysis.lint` — a repo-specific **AST lint pass** built
  on :mod:`ast` with rules that encode this codebase's conventions
  (virtual clock only, no float-equality on progress fractions, no
  mutable default arguments, one-way package layering, no unseeded
  randomness).

* :mod:`repro.analysis.flow` — an **interprocedural flow analyzer** for
  the cooperative engine: a call graph, yield-point atomicity
  diagnostics over the shared-state ownership registry (REPRO10x) and a
  determinism-effect checker for the engine core (REPRO11x), suppressed
  the way lint findings are (a ``noqa`` comment, reason mandatory).

Run them from the command line::

    python -m repro.analysis verify        # plans + generated programs
    python -m repro.analysis lint src      # lint the tree
    python -m repro.analysis races --strict
    python -m repro.analysis effects --strict
"""

from repro.analysis.gate import (
    VERIFY_MODES,
    PlanVerificationError,
    PlanVerificationWarning,
    gate_segments,
    resolve_verify_mode,
)
from repro.analysis.invariants import (
    INVARIANT_RULES,
    Violation,
    collect_nodes,
    verify_plan,
    verify_segments,
)
from repro.analysis.lint import LintFinding, lint_file, lint_paths, lint_source
from repro.analysis.rules import LINT_RULES

__all__ = [
    "INVARIANT_RULES",
    "LINT_RULES",
    "VERIFY_MODES",
    "LintFinding",
    "PlanVerificationError",
    "PlanVerificationWarning",
    "Violation",
    "collect_nodes",
    "gate_segments",
    "lint_file",
    "lint_paths",
    "lint_source",
    "resolve_verify_mode",
    "verify_plan",
    "verify_segments",
]
