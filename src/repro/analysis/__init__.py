"""Static analysis for the progress-indicator engine.

Two pillars, both dependency-free (stdlib only):

* :mod:`repro.analysis.invariants` — a plan/segment **invariant
  verifier**: given an annotated physical plan and the
  :class:`~repro.core.segments.SegmentSpec` list the segment builder
  derived from it, statically check the structural properties the
  paper's estimator silently assumes (Sections 4.2, 4.3 and 4.5).
  :mod:`repro.analysis.gate` wires it in front of query execution, and
  :mod:`repro.analysis.generated` checks the text of the program each
  verified plan compiles to — the code production actually runs.

* :mod:`repro.analysis.lint` — a repo-specific **AST lint pass** built
  on :mod:`ast`, one file at a time, with rules
  (:mod:`repro.analysis.rules`) that encode this codebase's conventions:
  no float-equality on progress fractions, no mutable default arguments,
  one-way package layering, no unmediated store to shared engine state
  (the ownership registry in :mod:`repro.analysis.flow.shared_state`),
  no nondeterminism source — wall clock, unseeded randomness, the
  environment — anywhere outside test code.

Every monitored query imports this package for the gate, so the root
re-exports only the gate and verifier names; the linter is imported by
whoever lints (``from repro.analysis.lint import lint_paths``).

Run them from the command line::

    python -m repro.analysis verify        # plans + generated programs
    python -m repro.analysis lint src      # lint the tree
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

__all__ = [
    "INVARIANT_RULES",
    "VERIFY_MODES",
    "PlanVerificationError",
    "PlanVerificationWarning",
    "Violation",
    "collect_nodes",
    "gate_segments",
    "resolve_verify_mode",
    "verify_plan",
    "verify_segments",
]
