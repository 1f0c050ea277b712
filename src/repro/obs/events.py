"""Typed trace events: the vocabulary of the observability subsystem.

Every event carries ``t``, the **virtual-clock** instant it describes —
never wall-clock time (lint rule REPRO110 applies to the emitters, and the
audit tooling depends on virtual timestamps being reproducible).  The
taxonomy mirrors the paper's moving parts:

=====================  =====================================================
event                  paper anchor
=====================  =====================================================
QueryStarted           §3 (indicator attaches; optimizer's initial cost)
SegmentStarted/
SegmentFinished        §4.2 (segment lifecycle at blocking boundaries)
RefinementTick         §4.5 (the full ``E = p*E2 + (1-p)*E1`` blend per
                       segment, with p, q per input, and the dominant input)
CardinalityRefined     §4.3 (a base input's estimate source transitioned:
                       optimizer Ne -> running count -> exact)
DominantSwitched       §4.5 (sort-merge p = max(qA, qB): the arg-max side
                       changed)
SpeedSampled/
SpeedEstimated         §4.6 (cumulative-work sample; current speed estimate)
TickerFired            §3 "acceptable pacing" (a periodic ticker ran)
ReportEmitted          Figure 2 (one user-facing progress report)
CandidateEstimated     pluggable estimators: one registered candidate's
                       estimate at a report tick (the ensemble selector
                       races all of them; ``selected`` marks the winner)
BufferAccess           §4.1 (time-per-U between disk-bound and cached poles)
PageRead/PageWritten   §4.1 (disk page transfer counters)
ExtraPass              §4.5 (multi-stage extra pass bytes)
ExecutionStarted/
ExecutionFinished      §5.1 (the monitored run itself)
QueryFinished          §5 (ground truth for the accuracy audit)
QueryTimedOut/
QueryFailed            §3 (terminal outcomes other than completion; the
                       indicator must report honestly on every path)
FaultInjected          robustness: a seeded fault fired (repro.fault)
IoRetried/IoGaveUp     robustness: transient-I/O retry with backoff
IndicatorDegraded      robustness: monitoring failed, query unaffected —
                       the indicator serves its last-good / optimizer
                       fallback estimate ("degrade, don't die")
AdmissionDecided       §6 (service front-end: one submission's admission
                       verdict — admitted, queued, or rejected)
QueryShed              §6 (the load-shedding policy evicted a query its
                       own remaining-time estimate predicted would miss
                       its deadline)
TenantThrottled        §6 (a tenant hit its cost budget; its submission
                       waits in the admission queue)
=====================  =====================================================

Events are frozen dataclasses with a stable ``kind`` string, a lossless
``to_dict`` and a ``event_from_dict`` inverse, so a JSONL trace round-trips
exactly — the estimator-accuracy audit replays traces through these types.

**Schema evolution** (``TRACE_SCHEMA_VERSION``): new event kinds and new
fields may be added, but only with defaults — deserialization fills a
missing field from its dataclass default, so traces recorded under an
older schema (e.g. the committed golden traces) replay unchanged.
Removing or renaming a field, or adding one without a default, is a
breaking change and requires regenerating every committed trace.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import Any, Optional, Type

#: Bumped on every additive change to the event vocabulary.  Version 2
#: added ``ReportEmitted.estimator`` and the ``candidate_estimated`` kind
#: (the pluggable-estimator redesign); version 3 added the multi-tenant
#: service kinds ``admission_decided`` / ``query_shed`` /
#: ``tenant_throttled``.  Both bumps are additive (new kinds only, new
#: fields only with defaults), so version-1 and version-2 traces still
#: replay through the defaults-fill path in :func:`_rebuild`.  The two
#: operator/pulse probe kinds of the deleted analysis cross-check went
#: without a bump: only that tool ever emitted them, into traces nobody
#: committed.
TRACE_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class TraceEvent:
    """Base class: one observation at virtual instant ``t``."""

    t: float

    #: Stable wire name of the event type (overridden per subclass).
    kind = "event"

    def to_dict(self) -> dict[str, Any]:
        """Lossless dict form (JSONL wire format)."""
        out: dict[str, Any] = {"kind": self.kind}
        out.update(asdict(self))
        return out


# ----------------------------------------------------------------------
# query lifecycle


@dataclass(frozen=True)
class SegmentMeta:
    """Static per-segment facts recorded once at query start."""

    id: int
    label: str
    final: bool
    #: (kind, label, dominant, child_segment) per input, in input order.
    inputs: tuple[tuple[str, str, bool, Optional[int]], ...]
    est_output_rows: float
    est_cost_bytes: float


@dataclass(frozen=True)
class QueryStarted(TraceEvent):
    """The indicator attached to a planned query."""

    label: str
    num_segments: int
    initial_cost_pages: float
    segments: tuple[SegmentMeta, ...]

    kind = "query_started"


@dataclass(frozen=True)
class QueryFinished(TraceEvent):
    """The monitored query completed (audit ground truth)."""

    elapsed: float
    done_pages: float
    actual_cost_pages: float

    kind = "query_finished"


@dataclass(frozen=True)
class QueryCancelled(TraceEvent):
    """The monitored query was cancelled before completion.

    The paper's Section 1 motivation — a user deciding whether a query is
    worth waiting for — ends here when the answer is no.  ``fraction_done``
    is the indicator's last estimate at the moment of cancellation.
    """

    elapsed: float
    done_pages: float
    fraction_done: float

    kind = "query_cancelled"


@dataclass(frozen=True)
class QueryTimedOut(TraceEvent):
    """The query exceeded its statement timeout/deadline.

    The scheduler watchdog unwound the operator tree cooperatively; the
    indicator's counters stop wherever execution was interrupted.
    """

    elapsed: float
    done_pages: float
    fraction_done: float

    kind = "query_timed_out"


@dataclass(frozen=True)
class QueryFailed(TraceEvent):
    """The query raised out of the executor (a fatal or unretryable fault).

    ``error`` is the repr of the terminating exception; the failure was
    contained to this query — other in-flight queries keep running.
    """

    elapsed: float
    done_pages: float
    fraction_done: float
    error: str

    kind = "query_failed"


@dataclass(frozen=True)
class ExecutionStarted(TraceEvent):
    """The executor began pulling rows from the plan root."""

    num_subplans: int

    kind = "execution_started"


@dataclass(frozen=True)
class ExecutionFinished(TraceEvent):
    """The executor drained the plan root."""

    rows: int

    kind = "execution_finished"


# ----------------------------------------------------------------------
# segment lifecycle (§4.2)


@dataclass(frozen=True)
class SegmentStarted(TraceEvent):
    """A segment reported its first input/output bytes."""

    segment_id: int

    kind = "segment_started"


@dataclass(frozen=True)
class SegmentFinished(TraceEvent):
    """A segment completed; its counters are now exact."""

    segment_id: int
    done_bytes: float
    output_rows: int

    kind = "segment_finished"


@dataclass(frozen=True)
class ExtraPass(TraceEvent):
    """A multi-stage extra pass re-processed ``nbytes`` (§4.5)."""

    segment_id: int
    nbytes: float

    kind = "extra_pass"


# ----------------------------------------------------------------------
# refinement provenance (§4.3, §4.5)


@dataclass(frozen=True)
class InputTrace:
    """One segment input inside a refinement snapshot."""

    index: int
    label: str
    dominant: bool
    #: This input's processed fraction (the q of §4.5).
    q: float
    rows_read: int
    est_rows: float
    #: Where the estimate comes from: "ne" (optimizer's Ne), "overrun"
    #: (running count exceeded Ne), "exact" (scan finished), "child"
    #: (propagated moving estimate), "child_final" (child segment done).
    source: str


@dataclass(frozen=True)
class SegmentTrace:
    """One segment's full refinement state at a tick."""

    segment_id: int
    status: str
    #: Dominant-input fraction p of §4.5 (max over dominant inputs).
    p: float
    #: The optimizer's re-invoked estimate (upward propagation).
    e1: float
    #: The extrapolated estimate y/p; None while p == 0.
    e2: Optional[float]
    #: The blended output-cardinality estimate E = p*E2 + (1-p)*E1.
    estimate: float
    #: Which input currently decides p, or None before any progress.
    dominant_input: Optional[int]
    est_cost_bytes: float
    done_bytes: float
    inputs: tuple[InputTrace, ...]


@dataclass(frozen=True)
class RefinementTick(TraceEvent):
    """A full §4.5 refinement pass, with per-segment provenance."""

    segments: tuple[SegmentTrace, ...]
    est_total_bytes: float
    done_bytes: float
    current_segment: Optional[int]

    kind = "refinement_tick"


@dataclass(frozen=True)
class CardinalityRefined(TraceEvent):
    """A §4.3 estimate-source transition on one segment input."""

    segment_id: int
    input_index: int
    label: str
    source_from: str
    source_to: str
    est_rows_from: float
    est_rows_to: float

    kind = "cardinality_refined"


@dataclass(frozen=True)
class DominantSwitched(TraceEvent):
    """The input deciding p changed (sort-merge p = max(qA, qB))."""

    segment_id: int
    from_input: Optional[int]
    to_input: int

    kind = "dominant_switched"


# ----------------------------------------------------------------------
# speed monitoring (§4.6) and pacing (§3)


@dataclass(frozen=True)
class TickerFired(TraceEvent):
    """A periodic virtual-clock ticker ran ("speed" or "report")."""

    name: str
    interval: float

    kind = "ticker_fired"


@dataclass(frozen=True)
class SpeedSampled(TraceEvent):
    """One cumulative-work sample fed to the speed estimator."""

    cumulative_pages: float

    kind = "speed_sampled"


@dataclass(frozen=True)
class SpeedEstimated(TraceEvent):
    """The speed estimator's current output after a sample."""

    estimator: str
    pages_per_sec: Optional[float]

    kind = "speed_estimated"


@dataclass(frozen=True)
class ReportEmitted(TraceEvent):
    """One user-facing progress report (the paper's Figure 2 fields).

    ``degraded`` mirrors :attr:`repro.core.report.ProgressReport.degraded`:
    True when this report is a fallback served from behind the
    degrade-don't-die boundary (last good report or optimizer initial
    estimate) rather than a fresh refinement snapshot.  Accuracy scoring
    (:mod:`repro.obs.observatory.scoring`) excludes degraded reports from
    the error metrics but counts them in coverage statistics.

    ``estimator`` is the provenance of the estimate behind this report:
    the producing estimator's registry name, or ``"ensemble:<name>"``
    when the online selector served candidate ``<name>``.  ``None`` on
    pre-redesign (schema v1) traces.
    """

    elapsed: float
    done_pages: float
    est_cost_pages: float
    fraction_done: float
    speed_pages_per_sec: Optional[float]
    est_remaining_seconds: Optional[float]
    current_segment: Optional[int]
    finished: bool
    degraded: bool = False
    estimator: Optional[str] = None

    kind = "report_emitted"


@dataclass(frozen=True)
class CandidateEstimated(TraceEvent):
    """One registered estimator's view of the query at a report tick.

    Emitted once per candidate per report when the indicator runs the
    ensemble selector (or any estimator exposing candidate estimates) —
    the per-estimator accuracy audit and the leaderboard's per-estimator
    columns are scored entirely from these events.  ``selected`` marks
    the candidate whose estimate the selector is currently serving;
    ``score`` is the selector's backtest score (mean absolute log-error
    of this candidate's past predictions on since-finished segments;
    ``None`` before anything finished).
    """

    estimator: str
    elapsed: float
    done_pages: float
    est_cost_pages: float
    fraction_done: float
    est_remaining_seconds: Optional[float]
    selected: bool
    score: Optional[float]

    kind = "candidate_estimated"


# ----------------------------------------------------------------------
# storage (§4.1)


@dataclass(frozen=True)
class BufferAccess(TraceEvent):
    """One buffer-pool page request (hit = served from memory)."""

    file_id: int
    page_no: int
    hit: bool

    kind = "buffer_access"


@dataclass(frozen=True)
class PageRead(TraceEvent):
    """One page read from the simulated disk (I/O time charged)."""

    file_id: int
    page_no: int
    sequential: bool

    kind = "page_read"


@dataclass(frozen=True)
class PageWritten(TraceEvent):
    """One page written to the simulated disk (I/O time charged)."""

    file_id: int
    page_no: int

    kind = "page_written"


# ----------------------------------------------------------------------
# fault injection and recovery (repro.fault)


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """A seeded fault from the active :class:`~repro.fault.FaultPlan` fired.

    ``fault`` is the fault kind ("transient_io", "page_checksum",
    "transient_write", "spill_exhausted"); ``target`` identifies the I/O
    operation it hit.
    """

    fault: str
    file_id: int
    page_no: int

    kind = "fault_injected"


@dataclass(frozen=True)
class IoRetried(TraceEvent):
    """One retry of a transient page I/O, after backoff.

    ``attempt`` counts attempts *used so far including this retry* (the
    original failed attempt is 1, the first retry is 2).  ``backoff`` is
    the virtual seconds waited before this retry.
    """

    fault: str
    file_id: int
    page_no: int
    attempt: int
    backoff: float

    kind = "io_retry"


@dataclass(frozen=True)
class IoGaveUp(TraceEvent):
    """The retry budget for a transient I/O is exhausted.

    The transient error now propagates and terminates the query (the
    scheduler contains it to one task).
    """

    fault: str
    file_id: int
    page_no: int
    attempts: int
    error: str

    kind = "io_gave_up"


@dataclass(frozen=True)
class IndicatorDegraded(TraceEvent):
    """Monitoring raised; the indicator degraded instead of dying.

    ``phase`` is where the exception surfaced ("report", "speed",
    "final"); ``fallback`` is what estimate was served instead
    ("last_good" or "optimizer").  The query itself is never affected.
    """

    phase: str
    fallback: str
    error: str

    kind = "degraded"


# ----------------------------------------------------------------------
# multi-tenant service control loop (repro.service, paper §6 automated)


@dataclass(frozen=True)
class AdmissionDecided(TraceEvent):
    """The admission controller ruled on one submission.

    ``outcome`` is "admitted" (a scheduler task exists now), "queued"
    (waiting in the bounded admission queue for capacity or tenant
    budget) or "rejected" (the queue itself was full — the explicit
    ``ADMISSION_REJECTED`` terminal outcome; no task was ever created).
    ``predicted_cost_pages`` is the optimizer's initial cost estimate
    the decision was gated on; ``inflight``/``queued`` snapshot the
    service's saturation at decision time.
    """

    tenant: str
    query: str
    outcome: str
    reason: str
    predicted_cost_pages: float
    inflight: int
    queued: int

    kind = "admission_decided"


@dataclass(frozen=True)
class QueryShed(TraceEvent):
    """The load-shedding policy evicted a monitored query (§6).

    Emitted by the indicator's abort path, exactly like the other
    terminal events: the counters stop wherever the cooperative unwind
    interrupted execution, and ``fraction_done`` is the last estimate at
    eviction time.  ``reason`` carries the policy's verdict (typically
    the predicted deadline miss that triggered the eviction).
    """

    elapsed: float
    done_pages: float
    fraction_done: float
    reason: str = "deadline"

    kind = "query_shed"


@dataclass(frozen=True)
class TenantThrottled(TraceEvent):
    """A tenant's submission was held back by its cost budget.

    ``inflight_cost_pages`` is the predicted cost of the tenant's
    currently admitted queries; admitting ``query`` would push it past
    ``budget_pages``, so the submission waits in the admission queue
    until the tenant's own queries drain.
    """

    tenant: str
    query: str
    inflight_cost_pages: float
    budget_pages: float
    queued: int

    kind = "tenant_throttled"


# ----------------------------------------------------------------------
# wire format

_EVENT_TYPES: tuple[Type[TraceEvent], ...] = (
    QueryStarted,
    QueryFinished,
    QueryCancelled,
    QueryTimedOut,
    QueryFailed,
    FaultInjected,
    IoRetried,
    IoGaveUp,
    IndicatorDegraded,
    ExecutionStarted,
    ExecutionFinished,
    SegmentStarted,
    SegmentFinished,
    ExtraPass,
    RefinementTick,
    CardinalityRefined,
    DominantSwitched,
    TickerFired,
    SpeedSampled,
    SpeedEstimated,
    ReportEmitted,
    CandidateEstimated,
    AdmissionDecided,
    QueryShed,
    TenantThrottled,
    BufferAccess,
    PageRead,
    PageWritten,
)

#: kind string -> event class, for deserialization.
EVENT_KINDS: dict[str, Type[TraceEvent]] = {c.kind: c for c in _EVENT_TYPES}

#: Nested dataclass fields that need reconstruction from lists/dicts.
_NESTED = {
    "query_started": {"segments": SegmentMeta},
    "refinement_tick": {"segments": SegmentTrace},
}
_SEGMENT_TRACE_NESTED = {"inputs": InputTrace}


def _rebuild(cls: type, payload: dict[str, Any]) -> Any:
    """Reconstruct one (possibly nested) trace dataclass from dict form.

    Tolerates fields absent from the payload when the dataclass declares
    a default — the schema-evolution contract above: old traces replay
    under a newer vocabulary.
    """
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in payload:
            if f.default is not MISSING or f.default_factory is not MISSING:
                continue  # filled from the dataclass default
            raise KeyError(f.name)
        value = payload[f.name]
        if cls is SegmentTrace and f.name in _SEGMENT_TRACE_NESTED:
            inner = _SEGMENT_TRACE_NESTED[f.name]
            value = tuple(_rebuild(inner, v) for v in value)
        elif cls is SegmentMeta and f.name == "inputs":
            value = tuple(tuple(v) for v in value)
        kwargs[f.name] = value
    return cls(**kwargs)


def event_from_dict(payload: dict[str, Any]) -> TraceEvent:
    """Inverse of :meth:`TraceEvent.to_dict` (JSONL replay path)."""
    data = dict(payload)
    kind = data.pop("kind")
    try:
        cls = EVENT_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown trace event kind {kind!r}") from None
    for name, inner in _NESTED.get(kind, {}).items():
        data[name] = tuple(_rebuild(inner, v) for v in data[name])
    return cls(**data)
