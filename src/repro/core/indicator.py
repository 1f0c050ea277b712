"""The progress indicator facade.

Attach one to a planned query before execution::

    indicator = ProgressIndicator(planned, clock, config)
    ctx = ExecContext(clock, disk, pool, config, tracker=indicator.tracker)
    run_query(planned, ctx)
    log = indicator.finalize()

While the query runs, two virtual-clock tickers drive the indicator:

* a fine-grained one (default every 1 s) feeding the speed estimator with
  cumulative-work samples, and
* the user-facing one (default every 10 s, the paper's pacing) taking a
  full refinement snapshot and emitting a :class:`ProgressReport`.

Goals from Section 3: continuously revised estimates (every report
re-runs the Section 4.5 refinement), acceptable pacing (periodic ticks),
minimal overhead (the query only counts in its own variables, the indicator
*pulls* through ``tracker.sync``; refinement runs only at tick time).

With a :class:`repro.obs.bus.TraceBus` attached, the indicator also
explains itself: every ticker fire, speed sample, refinement snapshot
(with the full ``E = p*E2 + (1-p)*E1`` provenance per segment), §4.3
estimate-source transition, and dominant-input switch is emitted as a
typed event.  Without one (the default), every trace hook is a single
``is not None`` test.

**Degrade, don't die** (Section 3's "monitoring must not endanger the
query"): the indicator's ticker callbacks run *inside* the executing
query — the virtual clock fires them mid-``advance`` — so an exception
escaping a refinement pass would abort the query it was merely watching.
Every monitoring entry point therefore catches ``Exception`` at the
boundary: the failing sample is replaced by the last good report (or, if
none exists yet, by the optimizer's initial estimate), the report is
marked ``degraded=True``, a ``degraded`` trace event records the error,
and the query never notices.  ``degraded_count`` tallies the hits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.analysis.gate import gate_plan
from repro.config import SystemConfig
from repro.core.history import ProgressLog
from repro.core.report import ProgressReport
from repro.core.segments import planned_cost_pages, planned_segments
from repro.core.speed import make_speed_estimator
from repro.errors import ProgressError
from repro.estimators import (
    EstimateSnapshot,
    EstimatorContext,
    make_estimator,
)
from repro.estimators.history import HistoryStore
from repro.executor.work import WorkTracker
from repro.obs.bus import TraceBus
from repro.obs.events import (
    CandidateEstimated,
    CardinalityRefined,
    DominantSwitched,
    IndicatorDegraded,
    QueryCancelled,
    QueryFailed,
    QueryFinished,
    QueryShed,
    QueryStarted,
    QueryTimedOut,
    RefinementTick,
    ReportEmitted,
    SegmentMeta,
    SpeedEstimated,
    SpeedSampled,
    TickerFired,
)
from repro.obs.events import InputTrace as _InputTrace
from repro.obs.events import SegmentTrace as _SegmentTrace
from repro.planner.optimizer import PlannedQuery
from repro.sim.clock import VirtualClock

#: Virtual seconds between cumulative-work samples fed to the speed
#: estimator.  Divides the default ``speed_window`` evenly, which exact
#: windows need.
SPEED_SAMPLE_INTERVAL = 1.0
#: Decay factor per sample of the "decay" speed estimator.
DECAY_ALPHA = 0.3


class ProgressIndicator:
    """Monitors one query execution on a virtual clock."""

    def __init__(
        self,
        planned: PlannedQuery,
        clock: VirtualClock,
        config: Optional[SystemConfig] = None,
        on_report: Optional[Callable[[ProgressReport], None]] = None,
        trace: Optional[TraceBus] = None,
        label: str = "query",
        estimator: Optional[str] = None,
        history: Optional[HistoryStore] = None,
    ) -> None:
        self._config = config or planned.config
        self._progress_cfg = self._config.progress
        self._page_size = self._config.page_size
        self._clock = clock
        self._on_report = on_report
        self._trace = trace
        self._label = label

        self.segments = planned_segments(planned)
        # Pre-execution invariant gate (warn by default, strict in tests),
        # verified once per plan.
        gate_plan(planned, config=self._config, label=label)
        self.tracker = WorkTracker(
            num_inputs=[len(s.inputs) for s in self.segments],
            final_segment=self.segments[-1].id,
            clock=clock,
        )
        self.tracker.trace = trace
        # Which estimation strategy runs this query: the explicit submit
        # argument wins, else ProgressConfig.estimator.
        name = estimator if estimator is not None else self._progress_cfg.estimator
        self.estimator_name = name
        self.estimator = make_estimator(
            name, self.segments, self.tracker,
            EstimatorContext(history=history),
        )
        self._speed = make_speed_estimator(
            self._progress_cfg.speed_estimator,
            self._progress_cfg.speed_window,
            DECAY_ALPHA,
        )
        #: The optimizer's initial total cost, in U (pages) — what a trivial
        #: optimizer-based indicator would use for its whole life.
        self.initial_cost_pages = planned_cost_pages(planned)

        self.started_at = clock.now
        self.reports: list[ProgressReport] = []
        self._finalized = False
        #: Monitoring failures absorbed at the degrade boundary.
        self.degraded_count = 0
        #: Re-entrancy guard: a report tick must never nest inside another
        #: (several indicators share one clock under the scheduler, and a
        #: refinement pass touches shared tracker state).
        self._sampling = False
        #: Last seen estimate source per (segment, input) and last deciding
        #: dominant input per segment — for trace transition events only.
        self._last_sources: dict[tuple[int, int], str] = {}
        self._last_rows: dict[tuple[int, int], float] = {}
        self._last_dominant: dict[int, Optional[int]] = {}

        if trace is not None:
            trace.emit(
                QueryStarted(
                    t=clock.now,
                    label=label,
                    num_segments=len(self.segments),
                    initial_cost_pages=self.initial_cost_pages,
                    segments=tuple(
                        SegmentMeta(
                            id=s.id,
                            label=s.label,
                            final=s.final,
                            inputs=tuple(
                                (i.kind, i.label, i.dominant, i.child_segment)
                                for i in s.inputs
                            ),
                            est_output_rows=s.est_output_rows,
                            est_cost_bytes=s.initial_cost_bytes(),
                        )
                        for s in self.segments
                    ),
                )
            )

        self._speed.record(clock.now, 0.0)
        self._speed_ticker = clock.add_ticker(
            SPEED_SAMPLE_INTERVAL, self._sample_speed
        )
        self._report_ticker = clock.add_ticker(
            self._progress_cfg.update_interval, self._sample_report
        )

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` or :meth:`abort` already ran.

        Terminal-transition paths (scheduler, service) check this before
        aborting so an indicator is never finalized twice — the
        exactly-once contract the chaos harness verifies.
        """
        return self._finalized

    # ------------------------------------------------------------------
    # ticker callbacks

    def _sample_speed(self, t: float) -> None:
        try:
            done_pages = self.tracker.done_pages(self._page_size)
            self._speed.record(t, done_pages)
            if self._trace is not None:
                self._trace.emit(TickerFired(
                    t=t, name="speed", interval=SPEED_SAMPLE_INTERVAL,
                ))
                self._trace.emit(SpeedSampled(t=t, cumulative_pages=done_pages))
                self._trace.emit(SpeedEstimated(
                    t=t, estimator=self._speed.kind,
                    pages_per_sec=self._speed.speed(),
                ))
        except Exception as exc:  # noqa: REPRO007 - degrade boundary: a
            # broken speed sample is dropped; the query must not notice.
            self._note_degraded(t, phase="speed", fallback="skip", error=exc)

    def _sample_report(self, t: float) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            if self._trace is not None:
                self._trace.emit(TickerFired(
                    t=t, name="report", interval=self._progress_cfg.update_interval
                ))
            self.reports.append(self._safe_record(t, finished=False))
            if self._on_report is not None:
                try:
                    self._on_report(self.reports[-1])
                except Exception as exc:  # noqa: REPRO007 - degrade
                    # boundary: a broken user callback must not unwind
                    # the query the ticker fired inside of.
                    self._note_degraded(
                        t, phase="on_report", fallback="skip", error=exc
                    )
        except Exception as exc:  # noqa: REPRO007 - outermost degrade
            # boundary: even a failure in the fallback path itself is
            # absorbed; this tick is simply lost.
            self._note_degraded(t, phase="report", fallback="skip", error=exc)
        finally:
            self._sampling = False

    # ------------------------------------------------------------------
    # reporting

    def _build_report(
        self, t: float, snapshot: EstimateSnapshot, finished: bool
    ) -> ProgressReport:
        elapsed = t - self.started_at
        speed = self._speed.speed()
        if elapsed < self._progress_cfg.warmup:
            speed = None  # the indicator "watches" before first estimate
        remaining = snapshot.remaining_seconds(self._page_size, speed)
        done, total, _ = snapshot.pages(self._page_size)
        return ProgressReport(
            time=t,
            elapsed=elapsed,
            done_pages=done,
            est_cost_pages=total,
            fraction_done=snapshot.fraction_done,
            speed_pages_per_sec=speed,
            est_remaining_seconds=remaining,
            current_segment=snapshot.current_segment,
            finished=finished,
            estimator=self.estimator.provenance,
        )

    def _safe_record(self, t: float, finished: bool) -> ProgressReport:
        """One refinement pass behind the degrade boundary.

        Any ``Exception`` out of the snapshot / provenance / report path
        is absorbed and a fallback report served instead — the query the
        ticker fired inside of must never see monitoring errors.
        """
        try:
            return self._record_report(t, finished)
        except Exception as exc:  # noqa: REPRO007 - degrade boundary
            report = self._degrade(t, finished, phase="refine", error=exc)
            try:
                self._emit_report(t, report)
            except Exception:  # noqa: REPRO007 - last-ditch: tracing the
                # fallback report must not endanger the query either.
                pass
            return report

    def _degrade(
        self, t: float, finished: bool, phase: str, error: Exception
    ) -> ProgressReport:
        """Serve a fallback report after a monitoring failure.

        Preference order: the last good report (re-stamped to the current
        instant), else the optimizer's initial estimate with whatever the
        raw work counters say — the same information a plain
        optimizer-cost indicator would have.
        """
        last = next(
            (r for r in reversed(self.reports) if not r.degraded), None
        )
        if last is not None:
            fallback = "last_report"
            report = replace(
                last, time=t, elapsed=t - self.started_at,
                finished=finished, degraded=True,
            )
        else:
            fallback = "optimizer"
            done = self.tracker.total_done_bytes / self._page_size
            total = max(self.initial_cost_pages, done)
            report = ProgressReport(
                time=t,
                elapsed=t - self.started_at,
                done_pages=done,
                est_cost_pages=total,
                fraction_done=done / total if total > 0 else 0.0,
                speed_pages_per_sec=None,
                est_remaining_seconds=None,
                current_segment=None,
                finished=finished,
                degraded=True,
            )
        self._note_degraded(t, phase=phase, fallback=fallback, error=error)
        return report

    def _note_degraded(
        self, t: float, phase: str, fallback: str, error: Exception
    ) -> None:
        """Count one absorbed monitoring failure and (best-effort) trace it."""
        self.degraded_count += 1
        if self._trace is not None:
            try:
                self._trace.emit(IndicatorDegraded(
                    t=t, phase=phase, fallback=fallback, error=repr(error),
                ))
            except Exception:  # noqa: REPRO007 - last-ditch: even tracing
                # the degradation must not endanger the query.
                pass

    def _record_report(self, t: float, finished: bool) -> ProgressReport:
        """One refinement pass: trace provenance, then build the report.

        The closing pass of an untraced query reads totals only, so the
        estimator may skip what only the trace reads."""
        if finished and self._trace is None:
            if self.tracker.sync is not None:
                self.tracker.sync()
            snapshot = self.estimator.final_snapshot()
        else:
            snapshot = self.snapshot()
        if self._trace is not None:
            self._emit_refinement(t, snapshot)
        report = self._build_report(t, snapshot, finished)
        self._emit_report(t, report)
        self._emit_candidates(t)
        return report

    def _emit_report(self, t: float, report: ProgressReport) -> None:
        """Trace one displayed report (fresh or degraded fallback).

        Degraded fallbacks are emitted too — the trace must record exactly
        what the indicator displayed, and the accuracy scorer relies on the
        ``degraded`` flag to exclude them from error metrics.
        """
        if self._trace is None:
            return
        self._trace.emit(ReportEmitted(
            t=t,
            elapsed=report.elapsed,
            done_pages=report.done_pages,
            est_cost_pages=report.est_cost_pages,
            fraction_done=report.fraction_done,
            speed_pages_per_sec=report.speed_pages_per_sec,
            est_remaining_seconds=report.est_remaining_seconds,
            current_segment=report.current_segment,
            finished=report.finished,
            degraded=report.degraded,
            estimator=report.estimator,
        ))

    def _emit_candidates(self, t: float) -> None:
        """Trace every racing candidate's estimate (ensemble runs only).

        One :class:`CandidateEstimated` per candidate per report tick —
        the per-estimator audit and the leaderboard's per-estimator
        columns are scored entirely from this stream.  Remaining-time
        uses the same speed/warmup rule as the displayed report, so the
        candidates differ only by their cost estimates.
        """
        if self._trace is None:
            return
        candidates = self.estimator.candidate_estimates()
        if not candidates:
            return
        elapsed = t - self.started_at
        speed = self._speed.speed()
        if elapsed < self._progress_cfg.warmup:
            speed = None
        for cand in candidates:
            done = cand.done_bytes / self._page_size
            total = cand.est_total_bytes / self._page_size
            remaining = None
            if speed is not None and speed > 0:
                remaining = max(total - done, 0.0) / speed
            self._trace.emit(CandidateEstimated(
                t=t,
                estimator=cand.name,
                elapsed=elapsed,
                done_pages=done,
                est_cost_pages=total,
                fraction_done=cand.fraction_done,
                est_remaining_seconds=remaining,
                selected=cand.selected,
                score=cand.score,
            ))

    def _emit_refinement(self, t: float, snapshot: EstimateSnapshot) -> None:
        """Emit the per-tick §4.5 provenance and §4.3 transitions."""
        trace = self._trace
        assert trace is not None
        segment_traces: list[_SegmentTrace] = []
        for est in snapshot.segments:
            seg_id = est.spec.id
            input_traces: list[_InputTrace] = []
            for inp in est.inputs:
                key = (seg_id, inp.index)
                previous = self._last_sources.get(key)
                if previous is not None and previous != inp.source:
                    trace.emit(CardinalityRefined(
                        t=t,
                        segment_id=seg_id,
                        input_index=inp.index,
                        label=inp.label,
                        source_from=previous,
                        source_to=inp.source,
                        est_rows_from=self._last_rows.get(key, 0.0),
                        est_rows_to=inp.est_rows,
                    ))
                self._last_sources[key] = inp.source
                self._last_rows[key] = inp.est_rows
                input_traces.append(_InputTrace(
                    index=inp.index,
                    label=inp.label,
                    dominant=inp.dominant,
                    q=inp.progress,
                    rows_read=inp.rows_read,
                    est_rows=inp.est_rows,
                    source=inp.source,
                ))
            if est.status == "running":
                previous_dom = self._last_dominant.get(seg_id)
                if (
                    est.dominant_input is not None
                    and previous_dom is not None
                    and previous_dom != est.dominant_input
                ):
                    trace.emit(DominantSwitched(
                        t=t,
                        segment_id=seg_id,
                        from_input=previous_dom,
                        to_input=est.dominant_input,
                    ))
                if est.dominant_input is not None:
                    self._last_dominant[seg_id] = est.dominant_input
            segment_traces.append(_SegmentTrace(
                segment_id=seg_id,
                status=est.status,
                p=est.p,
                e1=est.e1,
                e2=est.e2,
                estimate=est.est_output_rows,
                dominant_input=est.dominant_input,
                est_cost_bytes=est.est_cost_bytes,
                done_bytes=est.done_bytes,
                inputs=tuple(input_traces),
            ))
        trace.emit(RefinementTick(
            t=t,
            segments=tuple(segment_traces),
            est_total_bytes=snapshot.est_total_bytes,
            done_bytes=snapshot.done_bytes,
            current_segment=snapshot.current_segment,
        ))

    def report(self, at: Optional[float] = None, finished: bool = False) -> ProgressReport:
        """Build a report from the current refinement snapshot.

        Behind the same degrade boundary as the periodic ticks: a broken
        refinement yields a fallback report, never an exception.
        """
        t = self._clock.now if at is None else at
        try:
            return self._build_report(t, self.snapshot(), finished)
        except Exception as exc:  # noqa: REPRO007 - degrade boundary
            return self._degrade(t, finished, phase="report", error=exc)

    def snapshot(self) -> EstimateSnapshot:
        """The refinement snapshot of the counters as they stand right now."""
        if self.tracker.sync is not None:
            self.tracker.sync()
        return self.estimator.snapshot()

    def describe_segments(self) -> str:
        """Per-segment progress table (the "looking inside" view)."""
        from repro.core.breakdown import render_breakdown, segment_progress

        rows = segment_progress(self.snapshot(), self._page_size, self.tracker)
        return render_breakdown(rows)

    def finalize(self) -> ProgressLog:
        """Stop sampling and return the full progress history."""
        if self._finalized:
            raise ProgressError("indicator already finalized")
        self._finalized = True
        self._speed_ticker.cancel()
        self._report_ticker.cancel()
        final = self._safe_record(self._clock.now, finished=True)
        self.reports.append(final)
        try:
            # Let the estimator learn from the completed run (the history
            # estimator feeds actual cardinalities back into its store).
            # Only on clean completion — abort() skips this on purpose:
            # interrupted counters are not ground truth.
            self.estimator.on_finish()
        except Exception as exc:  # noqa: REPRO007 - degrade boundary:
            # failed learning must not break query completion.
            self._note_degraded(
                self._clock.now, phase="on_finish", fallback="skip", error=exc
            )
        if self._trace is not None:
            self._trace.emit(QueryFinished(
                t=self._clock.now,
                elapsed=self._clock.now - self.started_at,
                done_pages=self.tracker.total_done_bytes / self._page_size,
                actual_cost_pages=final.est_cost_pages,
            ))
        return ProgressLog(
            reports=list(self.reports),
            started_at=self.started_at,
            finished_at=self._clock.now,
            initial_cost_pages=self.initial_cost_pages,
        )

    def abort(
        self,
        reason: str = "cancelled",
        error: Optional[BaseException] = None,
    ) -> ProgressLog:
        """Stop sampling on an abnormal end; the query never finished.

        Unlike :meth:`finalize`, the last report keeps ``finished=False``
        (the work counters stay wherever the unwound executor left
        them), and the trace records the terminal event matching
        ``reason`` — :class:`QueryCancelled`, :class:`QueryTimedOut`
        (``"timeout"``), :class:`QueryFailed` (``"failed"``) or
        :class:`QueryShed` (``"shed"``, the service's load-shedding
        eviction) — rather than ``QueryFinished``: the audit must not
        treat the final snapshot as ground truth.
        """
        if reason not in ("cancelled", "timeout", "failed", "shed"):
            raise ProgressError(f"unknown abort reason {reason!r}")
        if self._finalized:
            raise ProgressError("indicator already finalized")
        self._finalized = True
        self._speed_ticker.cancel()
        self._report_ticker.cancel()
        final = self._safe_record(self._clock.now, finished=False)
        self.reports.append(final)
        if self._trace is not None:
            now = self._clock.now
            elapsed = now - self.started_at
            done_pages = self.tracker.total_done_bytes / self._page_size
            if reason == "timeout":
                self._trace.emit(QueryTimedOut(
                    t=now, elapsed=elapsed, done_pages=done_pages,
                    fraction_done=final.fraction_done,
                ))
            elif reason == "shed":
                self._trace.emit(QueryShed(
                    t=now, elapsed=elapsed, done_pages=done_pages,
                    fraction_done=final.fraction_done,
                    reason="<unknown>" if error is None else str(error),
                ))
            elif reason == "failed":
                self._trace.emit(QueryFailed(
                    t=now, elapsed=elapsed, done_pages=done_pages,
                    fraction_done=final.fraction_done,
                    error="<unknown>" if error is None else repr(error),
                ))
            else:
                self._trace.emit(QueryCancelled(
                    t=now, elapsed=elapsed, done_pages=done_pages,
                    fraction_done=final.fraction_done,
                ))
        return ProgressLog(
            reports=list(self.reports),
            started_at=self.started_at,
            finished_at=self._clock.now,
            initial_cost_pages=self.initial_cost_pages,
        )
