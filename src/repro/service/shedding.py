"""The load-shedding policy loop: evict queries predicted to miss.

The paper's §6 imagines a DBA watching progress indicators and killing
the long-running queries that block everyone else; this module automates
the decision.  At slice boundaries the service asks, for every
deadline-bearing query: *given your own remaining-time estimate, will
you make it?*  A query persistently predicted to miss is first demoted
(its fair-share weight halves, yielding slices to queries that can still
make their deadlines) and then evicted (terminal ``shed`` state) —
degrade before dying, and free capacity early instead of burning it on a
lost cause until the watchdog fires at the deadline.

Robust-to-its-own-inputs, because estimator error is worst exactly under
the contention that triggers shedding (König et al., PAPERS.md):

* **Hysteresis** — one bad estimate does nothing.  A query is flagged
  only while its predicted overrun exceeds :data:`SHED_OVERRUN_FRACTION`
  of its deadline budget, needs ``shed_after`` consecutive flagged checks
  to be evicted, and recovers (strikes cleared, demotion lifted) only
  when the overrun falls below :data:`SHED_RECOVER_FRACTION` — estimates
  oscillating in the band between the two thresholds change nothing.
* **Degrade, don't die** — when the indicator reports ``degraded=True``
  (or has no remaining-time estimate yet), the policy falls back to the
  optimizer's initial cost and the observed average speed, the same
  information a plain optimizer-cost indicator would have; with no
  usable estimate at all it takes **no action** (never shed on missing
  data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import ServiceConfig
from repro.sched.task import QueryTask

#: Policy verdicts for one check of one query.
KEEP = "keep"
DEPRIORITIZE = "deprioritize"
EVICT = "evict"

#: A query is *flagged* when its predicted overrun — (now + estimated
#: remaining) − deadline — exceeds this fraction of its total deadline
#: budget (deadline − first slice) ...
SHED_OVERRUN_FRACTION = 0.10
#: ... and recovers (strikes reset, demotions lifted) only when the
#: overrun drops below this fraction.  The band between the two is the
#: hysteresis dead zone: estimator noise oscillating inside it changes
#: nothing (König et al.: estimate error is worst exactly when these
#: decisions matter, so single-sample actions are banned).
SHED_RECOVER_FRACTION = 0.0


@dataclass
class ShedDecision:
    """One policy check's verdict on one query."""

    action: str
    reason: str = ""
    #: Predicted overrun past the deadline in virtual seconds (None when
    #: no usable estimate existed).
    overrun: Optional[float] = None
    #: Where the remaining-time estimate came from: "indicator" (a fresh
    #: non-degraded report) or "optimizer" (the degrade fallback).
    source: str = "none"


@dataclass
class _TaskShedState:
    strikes: int = 0
    demoted: bool = False
    last_checked: float = field(default=float("-inf"))


class SheddingPolicy:
    """Per-query strike accounting over remaining-time estimates."""

    def __init__(
        self, config: ServiceConfig, page_size: int, warmup: float
    ) -> None:
        self._config = config
        self._page_size = page_size
        self._warmup = warmup
        self._state: dict[str, _TaskShedState] = {}

    def forget(self, name: str) -> None:
        """Drop per-query state once a task is retired."""
        self._state.pop(name, None)

    # ------------------------------------------------------------------

    def _predicted_remaining(
        self, task: QueryTask, now: float
    ) -> tuple[Optional[float], str]:
        """Estimated virtual seconds of work left, and its provenance.

        Prefers the indicator's last *non-degraded* report (aged by the
        time since it was emitted); degraded or absent, falls back to
        the optimizer's initial cost against the observed average speed.
        ``(None, "none")`` when there is no usable estimate — warmup, a
        never-sliced query, or an unmonitored one.
        """
        indicator = task.indicator
        if indicator is None or task.started_at is None:
            return None, "none"
        last = indicator.reports[-1] if indicator.reports else None
        if (
            last is not None
            and not last.degraded
            and last.est_remaining_seconds is not None
        ):
            aged = max(0.0, last.est_remaining_seconds - (now - last.time))
            return aged, "indicator"
        elapsed = now - task.started_at
        if elapsed <= self._warmup:
            return None, "none"
        done = indicator.tracker.done_pages(self._page_size)
        if done <= 0:
            return None, "none"
        speed = done / elapsed
        remaining_pages = max(indicator.initial_cost_pages - done, 0.0)
        return remaining_pages / speed, "optimizer"

    def evaluate(self, task: QueryTask, now: float) -> ShedDecision:
        """One policy check; mutates only this policy's strike state.

        The caller applies the verdict (demote / evict) — evaluation is
        side-effect free on the task except for lifting demotions on
        recovery.
        """
        cfg = self._config
        if task.deadline is None or task.done:
            return ShedDecision(KEEP)
        state = self._state.get(task.name)
        if state is None:
            state = self._state[task.name] = _TaskShedState()
        if now - state.last_checked < cfg.policy_interval:
            return ShedDecision(KEEP)
        state.last_checked = now

        remaining, source = self._predicted_remaining(task, now)
        if remaining is None:
            return ShedDecision(KEEP)  # no estimate -> no action
        started = task.started_at if task.started_at is not None else now
        budget = max(task.deadline - started, 1e-9)
        overrun = (now + remaining) - task.deadline

        if overrun > SHED_OVERRUN_FRACTION * budget:
            state.strikes += 1
        elif overrun < SHED_RECOVER_FRACTION * budget:
            state.strikes = 0
            if state.demoted:  # recovery lifts the demotion
                state.demoted = False
                task.demotions = 0
        # else: inside the hysteresis band — strikes unchanged.

        if state.strikes >= cfg.shed_after:
            return ShedDecision(
                EVICT,
                reason=(
                    f"predicted to miss deadline by {overrun:.1f}s "
                    f"({state.strikes} consecutive checks, "
                    f"estimate source: {source})"
                ),
                overrun=overrun,
                source=source,
            )
        if state.strikes >= cfg.deprioritize_after and not state.demoted:
            state.demoted = True
            return ShedDecision(
                DEPRIORITIZE,
                reason=(
                    f"predicted to miss deadline by {overrun:.1f}s "
                    f"(estimate source: {source})"
                ),
                overrun=overrun,
                source=source,
            )
        return ShedDecision(KEEP, overrun=overrun, source=source)
