"""Per-query progress-accuracy scoring, replayed from a sealed trace.

This module commits to *exact* metric definitions (documented in
``docs/observability.md``); the leaderboard, its registry claims, and the
tests all rely on them.  All inputs come from one query's recorded trace
events — the same replay machinery as :mod:`repro.obs.audit`, extended
from one error column to a full score card.

**Ground truth.**  The trace's own ``query_finished`` event: total
elapsed virtual time ``T`` and the exact total cost.  Queries that end in
``query_cancelled``, ``query_timed_out``, or ``query_failed`` have no
ground truth and are *excluded from accuracy scoring* but counted in the
leaderboard's coverage statistics.

**Report eligibility.**  Reports with ``degraded=True`` (fallbacks served
from behind the degrade-don't-die boundary) are excluded from every error
metric but counted in ``reports_degraded``.  Reports whose
``est_remaining_seconds`` is None (warm-up) participate only in the
progress-error and monotonicity metrics.

**Metrics** (for a finished query with reports at elapsed ``t_i``,
estimates ``est_i``, actual remaining ``act_i = max(T - t_i, 0)``):

* *q-error* — ``q_i = max(est_i', act_i') / min(est_i', act_i')`` where
  ``x' = max(x, QERROR_FLOOR_SECONDS)`` floors both operands (the floor
  keeps the tail of a run, where actual remaining approaches zero, from
  dividing by ~0).  Aggregated per query as the geometric mean and max.
* *progress error* — ``|fraction_done_i - t_i / T|``, the absolute
  deviation of the displayed completed fraction from true linear
  progress; aggregated as mean and max (fraction units, 0..1).
* *monotonicity violations* — the number of consecutive eligible report
  pairs where ``fraction_done`` decreases by more than 1e-9 (the paper's
  indicator is monotone by construction; a violation is an estimator
  defect).
* *time-to-within-10%* — the earliest elapsed fraction ``t*/T`` such
  that every estimate at ``t >= t*`` satisfies
  ``|est - act| <= max(0.1 * T, QERROR_FLOOR_SECONDS)``; 1.0 when no
  such suffix exists (or the query emitted no estimates).  Lower is
  better: 0.1 means the indicator locked on after 10% of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.obs.events import (
    CandidateEstimated,
    QueryCancelled,
    QueryFailed,
    QueryFinished,
    QueryTimedOut,
    ReportEmitted,
    TraceEvent,
)

#: Floor, in virtual seconds, applied to both operands of the q-error
#: ratio and to the within-10% band.
QERROR_FLOOR_SECONDS = 1.0

#: fraction_done decreases larger than this are monotonicity violations.
MONOTONICITY_EPSILON = 1e-9


@dataclass(frozen=True)
class QueryScore:
    """The score card of one traced query run."""

    #: Terminal state observed in the trace: "finished", "cancelled",
    #: "timed_out", "failed", or "unterminated" (no terminal event).
    terminal: str
    #: True when the run produced accuracy metrics (terminal == finished
    #: and at least one eligible report).
    scored: bool

    # -- coverage ------------------------------------------------------
    #: Every report_emitted event seen, eligible or not.
    reports_total: int
    #: Reports excluded as degraded fallbacks.
    reports_degraded: int
    #: Non-degraded reports carrying a remaining-time estimate.
    reports_estimated: int

    # -- accuracy (None unless ``scored``) -----------------------------
    qerror_geomean: Optional[float] = None
    qerror_max: Optional[float] = None
    progress_err_mean: Optional[float] = None
    progress_err_max: Optional[float] = None
    monotonicity_violations: Optional[int] = None
    #: Elapsed fraction at which estimates locked within the 10% band.
    time_to_within_10: Optional[float] = None

    # -- run facts -----------------------------------------------------
    elapsed: Optional[float] = None
    actual_cost_pages: Optional[float] = None


def _qerror(est: float, actual: float) -> float:
    est = max(est, QERROR_FLOOR_SECONDS)
    actual = max(actual, QERROR_FLOOR_SECONDS)
    return max(est, actual) / min(est, actual)


def _geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(math.fsum(logs) / len(logs))


def _terminal_of(events: list[TraceEvent]) -> tuple[str, Optional[QueryFinished]]:
    for event in events:
        if isinstance(event, QueryFinished):
            return ("finished", event)
        if isinstance(event, QueryCancelled):
            return ("cancelled", None)
        if isinstance(event, QueryTimedOut):
            return ("timed_out", None)
        if isinstance(event, QueryFailed):
            return ("failed", None)
    return ("unterminated", None)


def score_events(events: list[TraceEvent]) -> QueryScore:
    """Score one query's recorded trace (see module docstring)."""
    reports = [e for e in events if isinstance(e, ReportEmitted)]
    terminal, finished = _terminal_of(events)
    eligible = [r for r in reports if not r.degraded]
    return _score_stream(terminal, finished, len(reports), eligible)


def score_candidate_events(events: list[TraceEvent]) -> dict[str, QueryScore]:
    """Score each estimator's candidate stream from one query's trace.

    Groups ``candidate_estimated`` events by estimator name and scores
    each stream with exactly the metric definitions above — one
    :class:`QueryScore` per racing candidate, against the same
    ``query_finished`` ground truth as the displayed reports.  Empty for
    traces recorded without the ensemble (no candidate events).
    """
    terminal, finished = _terminal_of(events)
    by_name: dict[str, list[CandidateEstimated]] = {}
    for event in events:
        if isinstance(event, CandidateEstimated):
            by_name.setdefault(event.estimator, []).append(event)
    return {
        name: _score_stream(terminal, finished, len(stream), stream)
        for name, stream in by_name.items()
    }


def _score_stream(
    terminal: str,
    finished: Optional[QueryFinished],
    reports_total: int,
    eligible: "list",
) -> QueryScore:
    """Shared metric core: ``eligible`` is any sample sequence exposing
    ``elapsed``, ``fraction_done`` and ``est_remaining_seconds`` (both
    :class:`ReportEmitted` and :class:`CandidateEstimated` qualify)."""
    estimated = [r for r in eligible if r.est_remaining_seconds is not None]

    coverage = dict(
        reports_total=reports_total,
        reports_degraded=reports_total - len(eligible),
        reports_estimated=len(estimated),
    )
    if terminal != "finished" or finished is None or not eligible:
        return QueryScore(terminal=terminal, scored=False, **coverage)

    total = finished.elapsed
    # q-error over remaining-time estimates
    qerrors = [
        _qerror(r.est_remaining_seconds, max(total - r.elapsed, 0.0))
        for r in estimated
        if r.est_remaining_seconds is not None  # narrowing for type-checkers
    ]
    # absolute progress error vs. true linear progress
    progress_errors = [
        abs(r.fraction_done - (r.elapsed / total if total > 0 else 1.0))
        for r in eligible
    ]
    # monotonicity over consecutive eligible reports
    violations = sum(
        1
        for prev, cur in zip(eligible, eligible[1:])
        if cur.fraction_done < prev.fraction_done - MONOTONICITY_EPSILON
    )
    return QueryScore(
        terminal=terminal,
        scored=True,
        qerror_geomean=_geomean(qerrors) if qerrors else None,
        qerror_max=max(qerrors) if qerrors else None,
        progress_err_mean=math.fsum(progress_errors) / len(progress_errors),
        progress_err_max=max(progress_errors),
        monotonicity_violations=violations,
        time_to_within_10=_time_to_within(estimated, total),
        elapsed=total,
        actual_cost_pages=finished.actual_cost_pages,
        **coverage,
    )


def _time_to_within(estimated: "list", total: float) -> float:
    """Earliest elapsed fraction from which all estimates stay in band."""
    if not estimated or total <= 0:
        return 1.0
    band = max(0.1 * total, QERROR_FLOOR_SECONDS)
    lock_from: Optional[float] = None
    for report in estimated:
        assert report.est_remaining_seconds is not None
        actual = max(total - report.elapsed, 0.0)
        if abs(report.est_remaining_seconds - actual) <= band:
            if lock_from is None:
                lock_from = report.elapsed
        else:
            lock_from = None  # the streak must reach the end of the run
    if lock_from is None:
        return 1.0
    return min(max(lock_from / total, 0.0), 1.0)
