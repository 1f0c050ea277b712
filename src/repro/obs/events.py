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
                       segment, with p, q per input, and the dominant input,
                       plus the synced raw counters it was computed from)
CardinalityRefined     §4.3 (a base input's estimate source transitioned:
                       optimizer Ne -> running count -> exact)
DominantSwitched       §4.5 (sort-merge p = max(qA, qB): the arg-max side
                       changed)
SpeedSampled/
SpeedEstimated         §4.6 (cumulative-work sample; current speed estimate)
TickerFired            §3 "acceptable pacing" (a periodic ticker ran)
ReportEmitted          Figure 2 (one user-facing progress report)
BufferAccess           §4.1 (time-per-U between disk-bound and cached poles)
PageRead/PageWritten   §4.1 (disk page transfer counters)
ExtraPass              §4.5 (multi-stage extra pass bytes)
QueryFinished          §5 (ground truth for the accuracy audit)
QueryCancelled/
QueryTimedOut/
QueryFailed            §3 (terminal outcomes other than completion; the
                       indicator must report honestly on every path)
IndicatorDegraded      robustness: monitoring failed, query unaffected —
                       the indicator serves its last-good / optimizer
                       fallback estimate ("degrade, don't die")
AdmissionDecided       §6 (service front-end: one submission's admission
                       verdict — admitted, queued, or rejected)
QueryShed              §6 (the load-shedding policy evicted a query its
                       own remaining-time estimate predicted would miss
                       its deadline)
=====================  =====================================================

Events are frozen dataclasses with a stable ``kind`` string, a lossless
``to_dict`` and a ``event_from_dict`` inverse, so a JSONL trace round-trips
exactly — the audit (:mod:`repro.obs.observatory.scoring`) replays traces
through these types, and :mod:`repro.obs.replay` any estimator over one.

**Keep rule.**  Every kind has an emitter outside ``repro.obs`` and a
reader inside it (metrics, exporters, scoring), or a named reason on the
census allowlist of ``tests/unit/test_obs_bus.py``.

**Wire format.**  A trace replays under the commit that wrote it.  The
vocabulary carries no version number and promises no replay of older
traces: a kind that has since been removed fails with ``unknown trace
event kind``, and committed golden traces are regenerated with the
vocabulary they pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Optional, Type

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
    """One :class:`~repro.core.segments.SegmentSpec`, lossless."""

    id: int
    label: str
    final: bool
    #: (kind, label, dominant, child_segment, est_rows, est_width) per
    #: input, in input order.
    inputs: tuple[tuple[str, str, bool, Optional[int], float, float], ...]
    est_output_rows: float
    est_cost_bytes: float
    est_output_width: float
    card_factor: float
    est_extra_bytes: float


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
    bytes_read: float
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
    #: Rows the segment produced (the final segment's: the query result).
    output_rows: int
    #: Bytes of those rows; 0 for the final segment, whose output is not work.
    output_bytes: float
    extra_bytes: float


@dataclass(frozen=True)
class RefinementTick(TraceEvent):
    """A full §4.5 refinement pass: provenance and the counters it read."""

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
    a degraded optimizer fallback.
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
# robustness: degrade, don't die


@dataclass(frozen=True)
class IndicatorDegraded(TraceEvent):
    """Monitoring raised; the indicator degraded instead of dying.

    ``phase`` is where the exception surfaced ("refine", "report",
    "speed", ...); ``fallback`` is what was served instead
    ("last_report", "optimizer" or "skip").  The query never notices."""

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


# ----------------------------------------------------------------------
# wire format

_EVENT_TYPES: tuple[Type[TraceEvent], ...] = (
    QueryStarted,
    QueryFinished,
    QueryCancelled,
    QueryTimedOut,
    QueryFailed,
    IndicatorDegraded,
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
    AdmissionDecided,
    QueryShed,
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


def _rebuild(cls: type, payload: dict[str, Any]) -> Any:
    """Reconstruct one nested trace dataclass from its dict form."""
    data = dict(payload)
    if cls is SegmentTrace:
        data["inputs"] = tuple(InputTrace(**v) for v in data["inputs"])
    elif cls is SegmentMeta:
        data["inputs"] = tuple(tuple(v) for v in data["inputs"])
    return cls(**data)


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
