"""Estimator-accuracy audit: replay a trace, score every estimate.

The paper evaluates its indicator by eye (Figures 6, 11, 15, 19: the
estimated remaining time versus the dashed ground-truth line).  The audit
turns that comparison into a table: replay the ``report_emitted`` events
of one recorded trace, use the trace's own ``query_finished`` event as
ground truth, and print the per-tick absolute remaining-time error plus
summary statistics.  Because the trace records exactly what the indicator
displayed, the audit is consistent with the run's :class:`ProgressLog` by
construction — the integration tests assert this.

Traces recorded with the ensemble selector also carry per-candidate
``candidate_estimated`` events; the audit scores each estimator's stream
separately (:class:`EstimatorAudit`) so the table shows which candidate
would have been most accurate in hindsight, next to what the selector
actually served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import TraceError
from repro.obs.events import (
    CandidateEstimated,
    QueryFinished,
    ReportEmitted,
    TraceEvent,
)


@dataclass(frozen=True)
class AuditRow:
    """One progress report scored against ground truth."""

    elapsed: float
    percent_done: float
    est_cost_pages: float
    speed_pages_per_sec: Optional[float]
    est_remaining: Optional[float]
    actual_remaining: float

    @property
    def abs_error(self) -> Optional[float]:
        """|estimated - actual| remaining seconds; None while warming up."""
        if self.est_remaining is None:
            return None
        return abs(self.est_remaining - self.actual_remaining)


@dataclass(frozen=True)
class EstimatorAudit:
    """One racing candidate's accuracy over a monitored run."""

    name: str
    #: Candidate estimates recorded (one per report tick).
    reports: int
    #: Ticks at which the selector was serving this candidate.
    selected: int
    #: Mean / max |estimated - actual| remaining seconds over the ticks
    #: that carried an estimate; None when the run never left warm-up.
    mean_abs_error: Optional[float]
    max_abs_error: Optional[float]


@dataclass(frozen=True)
class AuditSummary:
    """Aggregate accuracy of one monitored run."""

    rows: tuple[AuditRow, ...]
    total_elapsed: float
    initial_cost_pages: Optional[float]
    actual_cost_pages: float
    #: Per-candidate accuracy, in first-seen order; empty for traces
    #: recorded without the ensemble (no candidate_estimated events).
    estimators: tuple[EstimatorAudit, ...] = ()

    @property
    def mean_abs_error(self) -> Optional[float]:
        errors = [r.abs_error for r in self.rows if r.abs_error is not None]
        if not errors:
            return None
        return math.fsum(errors) / len(errors)

    @property
    def max_abs_error(self) -> Optional[float]:
        errors = [r.abs_error for r in self.rows if r.abs_error is not None]
        return max(errors) if errors else None


def audit_events(events: list[TraceEvent]) -> AuditSummary:
    """Score every per-tick estimate in a recorded trace."""
    finished: Optional[QueryFinished] = None
    initial_cost: Optional[float] = None
    reports: list[ReportEmitted] = []
    candidates: dict[str, list[CandidateEstimated]] = {}
    for event in events:
        if isinstance(event, ReportEmitted):
            reports.append(event)
        elif isinstance(event, CandidateEstimated):
            candidates.setdefault(event.estimator, []).append(event)
        elif isinstance(event, QueryFinished):
            finished = event
        elif event.kind == "query_started":
            initial_cost = getattr(event, "initial_cost_pages", None)
    if finished is None:
        raise TraceError(
            "trace has no query_finished event; cannot establish ground truth"
        )
    rows = tuple(
        AuditRow(
            elapsed=r.elapsed,
            percent_done=100.0 * r.fraction_done,
            est_cost_pages=r.est_cost_pages,
            speed_pages_per_sec=r.speed_pages_per_sec,
            est_remaining=r.est_remaining_seconds,
            actual_remaining=max(0.0, finished.elapsed - r.elapsed),
        )
        for r in reports
    )
    return AuditSummary(
        rows=rows,
        total_elapsed=finished.elapsed,
        initial_cost_pages=initial_cost,
        actual_cost_pages=finished.actual_cost_pages,
        estimators=tuple(
            _audit_candidate(name, stream, finished.elapsed)
            for name, stream in candidates.items()
        ),
    )


def _audit_candidate(
    name: str, stream: list[CandidateEstimated], total_elapsed: float
) -> EstimatorAudit:
    """Score one candidate's estimates against the run's ground truth."""
    errors = [
        abs(c.est_remaining_seconds - max(0.0, total_elapsed - c.elapsed))
        for c in stream
        if c.est_remaining_seconds is not None
    ]
    return EstimatorAudit(
        name=name,
        reports=len(stream),
        selected=sum(1 for c in stream if c.selected),
        mean_abs_error=math.fsum(errors) / len(errors) if errors else None,
        max_abs_error=max(errors) if errors else None,
    )


def render_audit(summary: AuditSummary) -> str:
    """The per-tick estimate-error table, plus summary lines."""
    header = (
        f"{'t (s)':>8} {'% done':>7} {'cost (U)':>10} {'speed':>8} "
        f"{'est left':>9} {'act left':>9} {'|error|':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in summary.rows:
        speed = ("-" if row.speed_pages_per_sec is None
                 else f"{row.speed_pages_per_sec:8.1f}")
        est = "-" if row.est_remaining is None else f"{row.est_remaining:9.1f}"
        err = "-" if row.abs_error is None else f"{row.abs_error:8.1f}"
        lines.append(
            f"{row.elapsed:8.1f} {row.percent_done:7.1f} "
            f"{row.est_cost_pages:10.1f} {speed:>8} {est:>9} "
            f"{row.actual_remaining:9.1f} {err:>8}"
        )
    lines.append("")
    lines.append(f"query elapsed        : {summary.total_elapsed:10.1f} virtual s")
    if summary.initial_cost_pages is not None:
        lines.append(
            f"optimizer initial cost: {summary.initial_cost_pages:9.1f} U "
            f"(actual {summary.actual_cost_pages:.1f} U)"
        )
    mean_err, max_err = summary.mean_abs_error, summary.max_abs_error
    if mean_err is not None and max_err is not None:
        lines.append(
            f"remaining-time error : mean {mean_err:.1f} s, max {max_err:.1f} s "
            f"over {len(summary.rows)} report(s)"
        )
    else:
        lines.append("remaining-time error : no estimates emitted (warm-up only)")
    if summary.estimators:
        lines.append("")
        lines.append(
            f"{'estimator':<12} {'ticks':>6} {'chosen':>7} "
            f"{'mean |err|':>11} {'max |err|':>10}"
        )
        for est in summary.estimators:
            mean = ("-" if est.mean_abs_error is None
                    else f"{est.mean_abs_error:11.1f}")
            peak = ("-" if est.max_abs_error is None
                    else f"{est.max_abs_error:10.1f}")
            lines.append(
                f"{est.name:<12} {est.reports:>6} {est.selected:>7} "
                f"{mean:>11} {peak:>10}"
            )
    return "\n".join(lines)
