"""Pre-execution verification gate.

Execution paths call :func:`gate_plan` (verifying each plan once) or
:func:`gate_segments` (specs built by the caller) after the segment
builder runs and before the first tuple flows.  Behaviour is governed by
a mode resolved from (highest priority first) the ``REPRO_VERIFY``
environment variable, then :attr:`repro.config.ProgressConfig.verify_mode`:

* ``"off"``    — skip verification entirely;
* ``"warn"``   — verify and emit a :class:`PlanVerificationWarning`
  listing the violations (the production default: a suspect estimate is
  better than a refused query);
* ``"strict"`` — verify and raise :class:`PlanVerificationError`
  (the test-suite and CI default, set in ``tests/conftest.py``).
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, Optional

from repro.analysis.invariants import Violation, verify_segments
from repro.config import SystemConfig
from repro.errors import ProgressError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> analysis)
    from repro.core.segments import SegmentSpec
    from repro.planner.optimizer import PlannedQuery
    from repro.planner.physical import PhysicalNode

VERIFY_MODES = ("off", "warn", "strict")

#: Environment override consulted before the config knob.
ENV_VAR = "REPRO_VERIFY"


class PlanVerificationError(ProgressError):
    """A plan failed invariant verification in strict mode."""

    def __init__(self, label: str, violations: list[Violation]) -> None:
        detail = "; ".join(v.format() for v in violations)
        super().__init__(
            f"plan verification failed for {label}: {len(violations)} "
            f"violation(s): {detail}"
        )
        self.label = label
        self.violations = violations


class PlanVerificationWarning(UserWarning):
    """A plan failed invariant verification in warn mode."""


def resolve_verify_mode(config: Optional[SystemConfig] = None) -> str:
    """The effective gate mode for ``config`` (env var wins)."""
    # REPRO_VERIFY selects how strictly plan/segment invariants are gated
    # (warn vs raise) as the indicator is built.  A test/debug knob that
    # never influences estimates, progress arithmetic or execution: the same
    # inputs give the same run at every setting that does not abort.
    mode = os.environ.get(ENV_VAR, "").strip().lower()  # noqa: REPRO110 - gate strictness only
    if not mode and config is not None:
        mode = getattr(config.progress, "verify_mode", "warn")
    mode = mode or "warn"
    if mode not in VERIFY_MODES:
        raise ProgressError(
            f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}"
        )
    return mode


def gate_segments(
    root: "PhysicalNode",
    specs: list["SegmentSpec"],
    config: Optional[SystemConfig] = None,
    mode: Optional[str] = None,
    label: str = "query",
) -> list[Violation]:
    """Verify a segmented plan; enforce per the resolved mode.

    Returns the violations found (empty when the plan is clean or the
    gate is off) so callers can log them even in warn mode.
    """
    if mode is None:
        mode = resolve_verify_mode(config)
    if mode == "off":
        return []
    return _enforce(verify_segments(root, specs), mode, label)


def gate_plan(
    planned: "PlannedQuery",
    config: Optional[SystemConfig] = None,
    mode: Optional[str] = None,
    label: str = "query",
) -> list[Violation]:
    """:func:`gate_segments` of a planned query, verified once per plan.

    The verdict is kept on the plan (``planned.violations``), which is
    immutable after prepare; every call enforces the mode in force now,
    so a plan with violations warns on each warn-mode submission and
    raises on each strict one.
    """
    violations = planned.violations
    if violations is not None and not violations:
        return violations  # a clean plan: nothing to enforce in any mode
    if mode is None:
        mode = resolve_verify_mode(config)
    if mode == "off":
        return []
    if violations is None:
        from repro.core.segments import planned_segments

        violations = planned.violations = verify_segments(
            planned.root, planned_segments(planned)
        )
    return _enforce(violations, mode, label)


def _enforce(violations: list[Violation], mode: str, label: str) -> list[Violation]:
    if not violations:
        return violations
    if mode == "strict":
        raise PlanVerificationError(label, violations)
    summary = "; ".join(v.format() for v in violations[:5])
    if len(violations) > 5:
        summary += f"; ... {len(violations) - 5} more"
    warnings.warn(
        f"plan verification found {len(violations)} violation(s) in "
        f"{label}: {summary}",
        PlanVerificationWarning,
        stacklevel=4,
    )
    return violations
