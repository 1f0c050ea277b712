"""Per-query progress-accuracy scoring, replayed from a sealed trace.

This module commits to *exact* metric definitions (documented in
``docs/observability.md``); the leaderboard, its registry claims, the
``python -m repro.obs audit`` command (:func:`render_audit`) and the
tests all rely on them.  All inputs come from one query's recorded trace
events, so a trace is scored one way wherever it is scored: the reports
it displayed, or any estimator's reports replayed from it
(:func:`repro.obs.replay.replay`).

**Ground truth.**  The trace's own ``query_finished`` event: total
elapsed virtual time ``T`` and the exact total cost.  Queries that end in
``query_cancelled``, ``query_timed_out``, ``query_failed`` or
``query_shed`` have no ground truth and are *excluded from accuracy
scoring* but counted in the leaderboard's coverage statistics.

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
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

from repro.estimators import estimator_names
from repro.obs.events import (
    QueryCancelled,
    QueryFailed,
    QueryFinished,
    QueryShed,
    QueryTimedOut,
    ReportEmitted,
    TraceEvent,
)
from repro.obs.replay import replay

#: Floor, in virtual seconds, applied to both operands of the q-error
#: ratio and to the within-10% band.
QERROR_FLOOR_SECONDS = 1.0

#: fraction_done decreases larger than this are monotonicity violations.
MONOTONICITY_EPSILON = 1e-9


@dataclass(frozen=True)
class QueryScore:
    """The score card of one traced query run."""

    #: Terminal state observed in the trace: "finished", "cancelled",
    #: "timed_out", "failed", "shed", or "unterminated" (no terminal
    #: event).
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


#: Terminal events without ground truth -> ``QueryScore.terminal``.
_TERMINALS = {
    QueryCancelled: "cancelled",
    QueryTimedOut: "timed_out",
    QueryFailed: "failed",
    QueryShed: "shed",
}


def _terminal_of(events: list[TraceEvent]) -> tuple[str, Optional[QueryFinished]]:
    for event in events:
        if isinstance(event, QueryFinished):
            return ("finished", event)
        terminal = _TERMINALS.get(type(event))
        if terminal is not None:
            return (terminal, None)
    return ("unterminated", None)


def score_events(
    events: list[TraceEvent], reports: Optional[Sequence] = None
) -> QueryScore:
    """Score ``reports`` (default: the trace's ``report_emitted`` events;
    or a replay's reports) against the trace's ground truth."""
    if reports is None:
        reports = [e for e in events if isinstance(e, ReportEmitted)]
    terminal, finished = _terminal_of(events)
    eligible = [r for r in reports if not r.degraded]
    estimated = [r for r in eligible if r.est_remaining_seconds is not None]

    coverage = dict(
        reports_total=len(reports),
        reports_degraded=len(reports) - len(eligible),
        reports_estimated=len(estimated),
    )
    if terminal != "finished" or finished is None or not eligible:
        return QueryScore(terminal=terminal, scored=False, **coverage)

    total = finished.elapsed
    # q-error over remaining-time estimates
    qerrors = [
        _qerror(r.est_remaining_seconds, max(total - r.elapsed, 0.0))
        for r in estimated
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


# ----------------------------------------------------------------------
# the audit: one trace, scored with the definitions above


def _column(value: Optional[float], width: int, spec: str) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:>{width}{spec}}"


def render_audit(events: list[TraceEvent]) -> tuple[str, QueryScore]:
    """A row per ``report_emitted`` event (its q-error against the
    trace's ground truth), then the score card of :func:`score_events`
    and a row per registered estimator plus ``ensemble``, each replayed
    from the trace under the default config.  A trace without ground
    truth ends in one ``not scored: <terminal>`` line."""
    score = score_events(events)
    header = (
        f"{'t (s)':>8} {'% done':>7} {'cost (U)':>10} {'speed':>8} "
        f"{'est left':>9} {'act left':>9} {'q-error':>8}"
    )
    lines = [header, "-" * len(header)]
    total = score.elapsed
    for r in (e for e in events if isinstance(e, ReportEmitted)):
        est = r.est_remaining_seconds
        act = None if total is None else max(total - r.elapsed, 0.0)
        q = None if est is None or act is None or r.degraded else _qerror(est, act)
        lines.append(
            f"{r.elapsed:8.1f} {100.0 * r.fraction_done:7.1f} "
            f"{r.est_cost_pages:10.1f} {_column(r.speed_pages_per_sec, 8, '.1f')} "
            f"{_column(est, 9, '.1f')} {_column(act, 9, '.1f')} {_column(q, 8, '.3f')}"
            + ("  degraded" if r.degraded else "")
        )
    lines.append("")
    if not score.scored:
        lines.append(f"not scored: {score.terminal}")
        return "\n".join(lines), score
    for f in fields(QueryScore):
        value = getattr(score, f.name)
        lines.append(
            f"{f.name:<24} {value:.6g}" if isinstance(value, float)
            else f"{f.name:<24} {value}"
        )
    lines.append("")
    lines.append(
        f"{'estimator':<12} {'ticks':>6} {'qerr_gm':>8} {'qerr_max':>9} "
        f"{'perr_mean':>10} {'tt10':>6}"
    )
    for name in estimator_names():
        cand = score_events(events, replay(events, name))
        lines.append(
            f"{name:<12} {cand.reports_total:>6} "
            f"{_column(cand.qerror_geomean, 8, '.3f')} "
            f"{_column(cand.qerror_max, 9, '.3f')} "
            f"{_column(cand.progress_err_mean, 10, '.4f')} "
            f"{_column(cand.time_to_within_10, 6, '.2f')}"
        )
    return "\n".join(lines), score
