"""Replay one logged execution under any registered estimator.

After König et al. (PAPERS.md), who evaluate estimators over *logged*
executions.  ``query_started`` carries every segment spec, each
``refinement_tick`` the synced raw counters, ``speed_sampled`` the speed
monitor's input: :func:`replay` rebuilds the counters at every tick and
builds each report with the indicator's own
:func:`~repro.core.indicator.build_report`.  Replaying the estimator that
ran live returns its reports float for float.  A tick whose refinement
failed live (a degraded report) has no counters and no replayed report;
``config`` must hold the recording's progress settings and page size.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.core.indicator import build_report, speed_monitor
from repro.core.report import ProgressReport
from repro.core.segments import SegmentInput, SegmentSpec
from repro.estimators import EstimatorContext, HistoryStore, make_estimator
from repro.executor.work import WorkTracker
from repro.obs.events import (
    QueryFinished,
    QueryStarted,
    RefinementTick,
    ReportEmitted,
    SpeedSampled,
    TraceEvent,
)


def load_tick(tracker: WorkTracker, tick: RefinementTick) -> None:
    """Set ``tracker``'s counters, its total too, to those ``tick`` saw."""
    for s in tick.segments:
        tracker.load(s.segment_id, [i.rows_read for i in s.inputs],
                     [i.bytes_read for i in s.inputs], s.output_rows, s.output_bytes,
                     s.extra_bytes, s.status != "pending", s.status == "finished")


def replay(
    events: list[TraceEvent],
    estimator: str,
    config: Optional[SystemConfig] = None,
    history: Optional[HistoryStore] = None,
) -> list[ProgressReport]:
    """The reports ``estimator`` would have shown, one per refinement
    tick; ``history`` learns from a trace ending in ``query_finished``.
    A trace without ``query_started`` replays to nothing."""
    started = next((e for e in events if isinstance(e, QueryStarted)), None)
    if started is None:
        return []
    config = config if config is not None else SystemConfig()
    specs = [
        SegmentSpec(
            id=m.id, label=m.label, final=m.final,
            inputs=[SegmentInput(i, kind, label, rows, width, dominant, child)
                    for i, (kind, label, dominant, child, rows, width)
                    in enumerate(m.inputs)],
            est_output_rows=m.est_output_rows,
            est_output_width=m.est_output_width,
            card_factor=m.card_factor, est_extra_bytes=m.est_extra_bytes,
        )
        for m in started.segments
    ]
    tracker = WorkTracker([len(s.inputs) for s in specs],
                          final_segment=next((s.id for s in specs if s.final), -1))
    live = make_estimator(estimator, specs, tracker, EstimatorContext(history))
    speed = speed_monitor(config.progress)
    speed.record(started.t, 0.0)
    reports: list[ProgressReport] = []
    snapshot = None
    for event in events:
        if isinstance(event, SpeedSampled):
            speed.record(event.t, event.cumulative_pages)
        elif isinstance(event, RefinementTick):
            load_tick(tracker, event)
            snapshot = live.snapshot()
        elif isinstance(event, ReportEmitted) and snapshot is not None:
            reports.append(build_report(
                event.t, started.t, snapshot, speed, config, event.finished,
                live.provenance,
            ))
            snapshot = None
        elif isinstance(event, QueryFinished):
            live.on_finish()
    return reports
