"""Metrics: counters, gauges, histograms, and per-segment span accounting.

The :class:`MetricsRegistry` is a flat namespace of instruments; the
:class:`MetricsCollector` is a TraceBus subscriber that populates one from
the event stream, so metrics need no extra instrumentation points — the
trace *is* the source of truth.

Span accounting answers the paper's §6 performance-tuning question
("where the time goes"): for every segment, the virtual seconds between
its first and last reported byte, split into **self** time (not covered
by a producing child segment's span) and child time, plus the U-bytes it
processed itself versus its whole subtree.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs.events import (
    AdmissionDecided,
    BufferAccess,
    CardinalityRefined,
    DominantSwitched,
    ExtraPass,
    IndicatorDegraded,
    PageRead,
    PageWritten,
    QueryFinished,
    QueryStarted,
    ReportEmitted,
    SegmentFinished,
    SegmentStarted,
    SpeedEstimated,
    TraceEvent,
)

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: Optional[float]) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram with cumulative bucket counts."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} bounds must be sorted")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Linear interpolation inside the bucket containing the target
        rank, the standard Prometheus-style estimate: exact only at
        bucket boundaries, deterministic everywhere.  The first bucket
        interpolates from 0 (all bounds are non-negative in practice);
        the open-ended last bucket is clamped to its lower bound.
        Returns None for an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if cumulative + bucket_count >= rank and bucket_count > 0:
                within = (rank - cumulative) / bucket_count
                if i >= len(self.bounds):  # open-ended overflow bucket
                    return self.bounds[-1] if self.bounds else None
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                return lower + within * (self.bounds[i] - lower)
            cumulative += bucket_count
        return self.bounds[-1] if self.bounds else None


class MetricsRegistry:
    """Flat name -> instrument registry with a text dump."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, bounds: tuple[float, ...]) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, bounds)
        return inst

    def render(self) -> str:
        """Flat text dump: one ``name value`` line, sorted by name."""
        lines: list[str] = []
        for name in sorted(self._counters):
            lines.append(f"{name} {_fmt(self._counters[name].value)}")
        for name in sorted(self._gauges):
            value = self._gauges[name].value
            lines.append(f"{name} {'nan' if value is None else _fmt(value)}")
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            lower: Optional[float] = None
            for bound, count in zip(hist.bounds, hist.bucket_counts):
                low = "" if lower is None else _fmt(lower)
                lines.append(f"{name}{{bucket={low}..{_fmt(bound)}}} {count}")
                lower = bound
            lines.append(f"{name}{{bucket={_fmt(lower)}..}} {hist.bucket_counts[-1]}")
            lines.append(f"{name}_count {hist.count}")
            lines.append(f"{name}_sum {_fmt(hist.total)}")
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                lines.append(f"{name}_{label} {_fmt(hist.quantile(q))}")
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "nan"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# span accounting


@dataclass
class SegmentSpan:
    """Virtual-time and U-byte accounting for one segment."""

    segment_id: int
    label: str
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    self_bytes: float = 0.0
    subtree_bytes: float = 0.0
    #: Seconds of the span not overlapped by a producing child's span.
    self_seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def duration(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def compute_spans(events: list[TraceEvent]) -> list[SegmentSpan]:
    """Per-segment span accounting from a recorded event stream.

    Self time is the segment's span minus the parts overlapped by the
    spans of the child segments feeding its inputs (a consumer that
    starts while its producer still runs is doing the producer's work in
    a pipelined sense).  Byte totals come from ``SegmentFinished``.
    """
    spans: dict[int, SegmentSpan] = {}
    children: dict[int, list[int]] = {}
    for event in events:
        if isinstance(event, QueryStarted):
            for meta in event.segments:
                spans[meta.id] = SegmentSpan(segment_id=meta.id, label=meta.label)
                children[meta.id] = [
                    inp[3] for inp in meta.inputs if inp[3] is not None
                ]
        elif isinstance(event, SegmentStarted):
            span = spans.setdefault(
                event.segment_id,
                SegmentSpan(event.segment_id, f"segment {event.segment_id}"),
            )
            if span.started_at is None:
                span.started_at = event.t
        elif isinstance(event, SegmentFinished):
            span = spans.setdefault(
                event.segment_id,
                SegmentSpan(event.segment_id, f"segment {event.segment_id}"),
            )
            if span.started_at is None:
                span.started_at = event.t
            span.finished_at = event.t
            span.self_bytes = event.done_bytes

    ordered = [spans[k] for k in sorted(spans)]
    for span in ordered:
        if span.started_at is None or span.finished_at is None:
            continue
        child_overlap = 0.0
        subtree = span.self_bytes
        for child_id in children.get(span.segment_id, []):
            child = spans.get(child_id)
            if child is None:
                continue
            subtree += child.subtree_bytes
            if child.started_at is not None and child.finished_at is not None:
                child_overlap += _overlap(
                    span.started_at, span.finished_at,
                    child.started_at, child.finished_at,
                )
        span.child_seconds = child_overlap
        span.self_seconds = max(0.0, span.duration - child_overlap)
        span.subtree_bytes = subtree
    return ordered


def render_spans(spans: list[SegmentSpan], page_size: int) -> str:
    """Aligned per-segment span table (the "where the time goes" view)."""
    header = (
        f"{'seg':>3}  {'label':<32} {'start':>8} {'finish':>8} "
        f"{'total s':>8} {'self s':>8} {'self U':>9} {'subtree U':>10}"
    )
    lines = [header, "-" * len(header)]
    for span in spans:
        start = "-" if span.started_at is None else f"{span.started_at:8.1f}"
        finish = "-" if span.finished_at is None else f"{span.finished_at:8.1f}"
        lines.append(
            f"{span.segment_id:>3}  {span.label[:32]:<32} {start:>8} {finish:>8} "
            f"{span.duration:8.1f} {span.self_seconds:8.1f} "
            f"{span.self_bytes / page_size:9.1f} {span.subtree_bytes / page_size:10.1f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the collector


#: Percent-done histogram boundaries (deciles).
_PERCENT_BOUNDS = tuple(float(b) for b in range(10, 100, 10))
#: Speed histogram boundaries in U/s (log-ish spacing).
_SPEED_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


class MetricsCollector:
    """TraceBus subscriber that aggregates events into a registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def handle(self, event: TraceEvent) -> None:
        reg = self.registry
        reg.counter(f"events.{event.kind}").inc()
        if isinstance(event, PageRead):
            kind = "seq" if event.sequential else "random"
            reg.counter(f"io.reads.{kind}").inc()
        elif isinstance(event, PageWritten):
            reg.counter("io.writes").inc()
        elif isinstance(event, BufferAccess):
            reg.counter("buffer.hits" if event.hit else "buffer.misses").inc()
        elif isinstance(event, SegmentStarted):
            reg.counter("segments.started").inc()
        elif isinstance(event, SegmentFinished):
            reg.counter("segments.finished").inc()
            reg.counter("work.segment_bytes").inc(event.done_bytes)
        elif isinstance(event, ExtraPass):
            reg.counter("work.extra_pass_bytes").inc(event.nbytes)
        elif isinstance(event, CardinalityRefined):
            reg.counter("refine.cardinality_transitions").inc()
        elif isinstance(event, DominantSwitched):
            reg.counter("refine.dominant_switches").inc()
        elif isinstance(event, SpeedEstimated):
            reg.gauge("speed.pages_per_sec").set(event.pages_per_sec)
            if event.pages_per_sec is not None:
                reg.histogram("speed.distribution", _SPEED_BOUNDS).observe(
                    event.pages_per_sec
                )
        elif isinstance(event, ReportEmitted):
            reg.counter("reports.emitted").inc()
            reg.gauge("progress.fraction_done").set(event.fraction_done)
            reg.gauge("progress.est_cost_pages").set(event.est_cost_pages)
            reg.gauge("progress.done_pages").set(event.done_pages)
            reg.histogram("progress.percent_done", _PERCENT_BOUNDS).observe(
                100.0 * event.fraction_done
            )
        elif isinstance(event, QueryFinished):
            reg.gauge("query.elapsed_seconds").set(event.elapsed)
            reg.gauge("query.actual_cost_pages").set(event.actual_cost_pages)
        elif isinstance(event, IndicatorDegraded):
            reg.counter(f"degraded.{event.phase}.{event.fallback}").inc()
        elif isinstance(event, AdmissionDecided):
            reg.counter(f"admission.{event.outcome}").inc()

    # Convenience: collect a whole recorded stream at once.
    def collect(self, events: list[TraceEvent]) -> MetricsRegistry:
        for event in events:
            self.handle(event)
        return self.registry
