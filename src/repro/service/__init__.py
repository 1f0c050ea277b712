"""Overload-robust multi-tenant query service (paper §6, automated).

The paper closes by arguing a progress indicator is more than a UI
widget: its remaining-time estimates are an input to *load management*.
This package takes that seriously and builds the service layer on top of
the cooperative scheduler:

* :class:`QueryService` — the front-end: admission control on predicted
  cost vs per-tenant budgets and service saturation, a bounded admission
  queue, a load-shedding policy loop driven by each query's own
  remaining-time estimate, and per-tenant weighted fair-share accounting.
* :class:`QueryHandle` — the one handle per submission, for
  ``db.service()`` and ``db.connect()`` alike: explicit admitted /
  queued / rejected outcome and tenant, then progress / result /
  cancel / trace / log / monitored.
* :class:`~repro.service.tenant.Tenant` /
  :class:`~repro.service.tenant.TenantRegistry` — fair-share weights,
  budgets and live accounting.
* :class:`~repro.service.admission.AdmissionController` and
  :class:`~repro.service.shedding.SheddingPolicy` — the two pure
  decision cores, separately testable.

Knobs live on :class:`repro.config.ServiceConfig`
(``SystemConfig.with_service(...)``); the defaults are fully permissive,
which is how :class:`repro.api.Session` stays a zero-surprise facade.
The service owns its scheduler — lint rule REPRO011 keeps direct
``CooperativeScheduler()`` construction inside this package and
:mod:`repro.sched`.
"""

from repro.service.admission import (
    ADMISSION_REJECTED,
    ADMITTED,
    QUEUED,
    AdmissionController,
    AdmissionDecision,
)
from repro.service.service import QueryHandle, QueryService
from repro.service.shedding import (
    DEPRIORITIZE,
    EVICT,
    KEEP,
    ShedDecision,
    SheddingPolicy,
)
from repro.service.tenant import Tenant, TenantRegistry

__all__ = [
    "ADMISSION_REJECTED",
    "ADMITTED",
    "DEPRIORITIZE",
    "EVICT",
    "KEEP",
    "QUEUED",
    "AdmissionController",
    "AdmissionDecision",
    "QueryHandle",
    "QueryService",
    "ShedDecision",
    "SheddingPolicy",
    "Tenant",
    "TenantRegistry",
]
