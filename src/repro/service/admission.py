"""The admission controller: gate submissions on cost, budget, saturation.

Every submission gets exactly one of three outcomes, decided *before*
any scheduler task exists:

* :data:`ADMITTED` — a task is created now and starts competing for
  slices;
* :data:`QUEUED` — the service is saturated (``max_inflight``) or the
  tenant is over its cost budget; the submission waits in the bounded
  admission queue and is re-evaluated as capacity frees up;
* :data:`ADMISSION_REJECTED` — the admission queue itself is full; the
  submission is refused outright (``AdmissionRejectedError``), with no
  task ever created.

The gate input is the optimizer's *initial* cost estimate — the same
number the progress indicator starts from (``initial_cost_pages``) —
because at admission time nothing has executed yet; mid-flight
corrections are the shedding loop's job (:mod:`repro.service.shedding`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import ServiceConfig
from repro.service.tenant import Tenant

#: Admission outcomes (the ``AdmissionDecided.outcome`` vocabulary).
ADMITTED = "admitted"
QUEUED = "queued"
ADMISSION_REJECTED = "rejected"


@dataclass(frozen=True)
class AdmissionDecision:
    """One submission's verdict and the reason it was reached."""

    outcome: str
    reason: str
    #: True when the queue/throttle was specifically the tenant's cost
    #: budget (the queue drain then tries the entries behind it).
    tenant_throttled: bool = False


class AdmissionController:
    """Pure decision logic: no side effects, fed live counts by the service."""

    def __init__(self, config: ServiceConfig) -> None:
        self._config = config

    def decide(
        self,
        tenant: Tenant,
        predicted_cost_pages: float,
        inflight: int,
        queued: int,
    ) -> AdmissionDecision:
        """Rule on one submission given the service's current saturation.

        ``inflight`` is the number of admitted, not-yet-terminal tasks;
        ``queued`` is the current admission-queue depth (the submission
        being decided not included).
        """
        cfg = self._config
        verdict: Optional[AdmissionDecision] = None
        if cfg.max_inflight is not None and inflight >= cfg.max_inflight:
            verdict = AdmissionDecision(
                QUEUED,
                f"saturated ({inflight} in flight, "
                f"limit {cfg.max_inflight})",
            )
        budget = tenant.cost_budget_pages
        if (
            verdict is None
            and budget is not None
            # A single query predicted to exceed the whole budget is
            # admitted while the tenant has nothing else in flight —
            # queueing it could never succeed (the budget check would
            # fail forever) and the budget bounds *concurrent* predicted
            # cost, not query size.
            and tenant.inflight_cost_pages > 0
            and tenant.inflight_cost_pages + predicted_cost_pages > budget
        ):
            verdict = AdmissionDecision(
                QUEUED,
                f"tenant {tenant.name!r} over cost budget "
                f"({tenant.inflight_cost_pages:.0f} + "
                f"{predicted_cost_pages:.0f} > {budget:.0f} pages)",
                tenant_throttled=True,
            )
        if verdict is None:
            return AdmissionDecision(ADMITTED, "capacity available")
        # The submission must wait — but the waiting room is bounded:
        # a full queue turns the wait into an outright rejection.
        if queued >= cfg.admission_queue_limit:
            return AdmissionDecision(
                ADMISSION_REJECTED,
                f"admission queue full ({queued} waiting, "
                f"limit {cfg.admission_queue_limit}; {verdict.reason})",
            )
        return verdict
