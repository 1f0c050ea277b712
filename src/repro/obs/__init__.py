"""Observability: tracing, metrics, and the estimator-accuracy audit.

The subsystem explains every estimate the progress indicator emits:

* :class:`TraceBus` (``repro.obs.bus``) — an ordered stream of typed
  events (``repro.obs.events``) stamped with **virtual** time.
* :class:`MetricsRegistry` / :class:`MetricsCollector`
  (``repro.obs.metrics``) — counters, gauges, histograms, and
  per-segment span accounting derived from the event stream.
* Exporters (``repro.obs.exporters``) — JSONL event logs and Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.
* The audit (``repro.obs.audit``) — replays a trace and scores every
  per-tick remaining-time estimate against ground truth.
* A CLI — ``python -m repro.obs {trace,audit,metrics}``.

Tracing is **opt-in**: pass ``trace=True`` (or a ``TraceBus``) to
``Session.submit``, or export ``REPRO_TRACE``.  Disabled (the default),
every instrumented call site costs one ``is not None`` test — the
``obs.trace_ratio`` row of ``benchmarks/e2e/`` keeps the enabled cost
measured.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.obs.audit import AuditRow, AuditSummary, audit_events, render_audit
from repro.obs.bus import SealedTrace, TraceBus
from repro.obs.exporters import (
    chrome_trace,
    chrome_trace_concurrent,
    overlapping_query_spans,
    read_jsonl,
    span_coverage,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    MetricsCollector,
    MetricsRegistry,
    compute_spans,
    render_spans,
)

_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})
_ON_VALUES = frozenset({"1", "on", "true", "yes"})


def resolve_trace_enabled() -> bool:
    """Is tracing on by default?  Only when ``REPRO_TRACE`` says so."""
    env = os.environ.get("REPRO_TRACE")  # noqa: REPRO110 - a bus observes, it changes no result
    return env is not None and env.strip().lower() not in _OFF_VALUES


def resolve_trace(trace: Union[None, bool, TraceBus]) -> Optional[TraceBus]:
    """The bus a ``trace=`` argument selects: the given :class:`TraceBus`,
    a fresh one for True, none for False, ``REPRO_TRACE``'s say for None."""
    if isinstance(trace, TraceBus):
        return trace
    if trace is None:
        trace = resolve_trace_enabled()
    return TraceBus() if trace else None


def trace_artifact_dir() -> Optional[Path]:
    """Directory trace artifacts should be written to, if any.

    ``REPRO_TRACE`` set to anything other than a plain on/off token is
    taken as a directory path: tracing is enabled *and* the bench harness
    writes ``<name>.trace.jsonl`` / ``<name>.trace.json`` artifacts there.
    """
    env = os.environ.get("REPRO_TRACE")  # noqa: REPRO110 - where artifacts go, not what they hold
    if env is None:
        return None
    token = env.strip()
    if token.lower() in _OFF_VALUES or token.lower() in _ON_VALUES:
        return None
    return Path(token)
