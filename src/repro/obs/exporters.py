"""Trace exporters: JSONL event logs and Chrome ``trace_event`` JSON.

Three output formats:

* **JSONL** — one event dict per line, lossless (``read_jsonl`` inverts
  it exactly).  The estimator-accuracy audit replays these files.
* **Chrome trace** — a ``{"traceEvents": [...]}`` document loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev, keyed on **virtual
  time** (1 virtual second = 1 trace second; the viewer shows µs).
  Segments become complete ("X") spans on their own rows, refinement
  provenance becomes instant ("i") events, and progress/speed/cost become
  counter ("C") tracks.
* **metrics text** — :meth:`repro.obs.metrics.MetricsRegistry.render`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, TextIO, Union

from repro.obs.events import (
    CardinalityRefined,
    DominantSwitched,
    ExtraPass,
    QueryFinished,
    QueryStarted,
    ReportEmitted,
    SpeedEstimated,
    TraceEvent,
    event_from_dict,
)
from repro.obs.metrics import compute_spans

#: Virtual seconds -> Chrome trace microseconds.
_US = 1_000_000.0


# ----------------------------------------------------------------------
# JSONL


def write_jsonl(events: list[TraceEvent], target: Union[str, Path, TextIO]) -> int:
    """Write one JSON object per line; returns the number of lines."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fp:
            return write_jsonl(events, fp)
    for event in events:
        target.write(json.dumps(event.to_dict(), sort_keys=True))
        target.write("\n")
    return len(events)


def read_jsonl(source: Union[str, Path, TextIO]) -> list[TraceEvent]:
    """Parse a JSONL trace back into typed events (audit replay path)."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fp:
            return read_jsonl(fp)
    events = []
    for line in source:
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Chrome trace_event


def _span(name: str, cat: str, start: float, dur: float, tid: int,
          args: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": name, "cat": cat, "ph": "X", "pid": 1, "tid": tid,
        "ts": start * _US, "dur": dur * _US,
    }
    if args:
        out["args"] = args
    return out


def _instant(name: str, cat: str, t: float, tid: int,
             args: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": name, "cat": cat, "ph": "i", "s": "t", "pid": 1, "tid": tid,
        "ts": t * _US,
    }
    if args:
        out["args"] = args
    return out


def _counter(name: str, t: float, value: float) -> dict[str, Any]:
    return {
        "name": name, "cat": "progress", "ph": "C", "pid": 1, "tid": 0,
        "ts": t * _US, "args": {"value": value},
    }


def chrome_trace(events: list[TraceEvent]) -> dict[str, Any]:
    """Convert a recorded event stream to a Chrome trace document."""
    started: Optional[QueryStarted] = None
    finished: Optional[QueryFinished] = None
    for event in events:
        if isinstance(event, QueryStarted):
            started = event
        elif isinstance(event, QueryFinished):
            finished = event

    trace_events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "repro progress indicator (virtual time)"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "query"}},
    ]

    labels: dict[int, str] = {}
    if started is not None:
        for meta in started.segments:
            labels[meta.id] = meta.label
            trace_events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": meta.id + 1,
                 "args": {"name": f"segment {meta.id}: {meta.label}"}}
            )

    # The root span covers the whole query's virtual duration.
    if started is not None and finished is not None:
        trace_events.append(_span(
            started.label, "query", started.t, finished.elapsed, tid=0,
            args={
                "initial_cost_pages": started.initial_cost_pages,
                "actual_cost_pages": finished.actual_cost_pages,
                "segments": started.num_segments,
            },
        ))

    for span in compute_spans(events):
        if span.started_at is None or span.finished_at is None:
            continue
        trace_events.append(_span(
            labels.get(span.segment_id, span.label), "segment",
            span.started_at, span.duration, tid=span.segment_id + 1,
            args={
                "self_seconds": span.self_seconds,
                "self_bytes": span.self_bytes,
                "subtree_bytes": span.subtree_bytes,
            },
        ))

    for event in events:
        if isinstance(event, ReportEmitted):
            trace_events.append(_counter("percent done", event.t,
                                         100.0 * event.fraction_done))
            trace_events.append(_counter("est cost (U)", event.t,
                                         event.est_cost_pages))
        elif isinstance(event, SpeedEstimated):
            if event.pages_per_sec is not None:
                trace_events.append(_counter("speed (U/s)", event.t,
                                             event.pages_per_sec))
        elif isinstance(event, CardinalityRefined):
            trace_events.append(_instant(
                f"refine {event.label}: {event.source_from}->{event.source_to}",
                "refine", event.t, event.segment_id + 1,
                args={"est_rows_from": event.est_rows_from,
                      "est_rows_to": event.est_rows_to},
            ))
        elif isinstance(event, DominantSwitched):
            trace_events.append(_instant(
                f"dominant input -> {event.to_input}", "refine",
                event.t, event.segment_id + 1,
                args={"from": event.from_input, "to": event.to_input},
            ))
        elif isinstance(event, ExtraPass):
            trace_events.append(_instant(
                "extra pass", "work", event.t, event.segment_id + 1,
                args={"nbytes": event.nbytes},
            ))

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_trace_concurrent(
    streams: "dict[str, list[TraceEvent]]",
) -> dict[str, Any]:
    """Merge per-query event streams into one multi-process Chrome trace.

    ``streams`` maps a query label to that query's recorded events (each
    in-flight query under :mod:`repro.sched` keeps its own stream).  Every
    query becomes its own trace *process* (pid), so the viewer stacks the
    queries vertically and concurrent execution shows up as overlapping
    segment spans on the shared virtual-time axis.

    Single-query exports should keep using :func:`chrome_trace`; its
    output format is unchanged (and golden-tested).
    """
    merged: list[dict[str, Any]] = []
    for pid, (label, events) in enumerate(streams.items(), start=1):
        doc = chrome_trace(events)
        for entry in doc["traceEvents"]:
            entry = dict(entry)
            entry["pid"] = pid
            if entry.get("ph") == "M" and entry.get("name") == "process_name":
                entry["args"] = {"name": f"{label} (virtual time)"}
            merged.append(entry)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def overlapping_query_spans(doc: dict[str, Any]) -> int:
    """Count pairs of root query spans (from different pids) that overlap
    in virtual time — the acceptance signal that queries truly ran
    interleaved rather than back to back."""
    roots = [
        (e["ts"], e["ts"] + e["dur"], e.get("pid"))
        for e in doc.get("traceEvents", [])
        if e.get("ph") == "X" and e.get("cat") == "query"
    ]
    overlaps = 0
    for i, (lo_a, hi_a, pid_a) in enumerate(roots):
        for lo_b, hi_b, pid_b in roots[i + 1:]:
            if pid_a != pid_b and lo_a < hi_b and lo_b < hi_a:
                overlaps += 1
    return overlaps


def write_chrome_trace(events: list[TraceEvent],
                       target: Union[str, Path, TextIO]) -> dict[str, Any]:
    """Write the Chrome trace JSON; returns the document."""
    doc = chrome_trace(events)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
    else:
        json.dump(doc, target, indent=1, sort_keys=True)
    return doc


def span_coverage(doc: dict[str, Any]) -> float:
    """Fraction of the root query span covered by the union of all spans.

    The root span itself participates, so a well-formed trace reports
    1.0; the value dips below 1.0 only if the root span is missing
    (query never finished) — the CLI surfaces this as a sanity check.
    """
    spans = [
        (e["ts"], e["ts"] + e["dur"])
        for e in doc.get("traceEvents", [])
        if e.get("ph") == "X"
    ]
    roots = [
        (e["ts"], e["ts"] + e["dur"])
        for e in doc.get("traceEvents", [])
        if e.get("ph") == "X" and e.get("cat") == "query"
    ]
    if not roots:
        return 0.0
    lo, hi = roots[0]
    if hi <= lo:
        return 1.0
    covered = 0.0
    cursor = lo
    for start, end in sorted(spans):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered / (hi - lo)
