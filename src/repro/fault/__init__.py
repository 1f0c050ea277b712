"""Deterministic fault injection and recovery (the robustness layer).

The paper's premise (Section 3) is that a progress indicator must observe
query execution without ever endangering it.  This package proves that
property under duress: seeded :class:`FaultPlan`\\ s inject transient disk
errors, page-checksum corruption, slow-disk windows, buffer-pool pressure
and spill-space exhaustion into the storage layer, and the recovery
machinery — retry-with-backoff in :mod:`repro.storage.disk`, the
scheduler watchdog in :mod:`repro.sched`, and the indicator's
degrade-don't-die boundary in :mod:`repro.core.indicator` — must keep
every invariant: queries reach exactly one terminal state, buffer pins
release on every path, progress stays monotone, and retried queries
return bit-identical results to fault-free runs.

:mod:`repro.fault.chaos` replays the paper's workload suite under seeded
random fault schedules and asserts all of it.

Disabled cost is ~zero, the same pattern as tracing: with no plan
installed every hook is a single ``is not None`` test (measured as
``fault.hook_ratio`` by ``benchmarks/e2e/``).
"""

from repro.fault.injector import FaultInjector, InjectedFault
from repro.fault.plan import BufferPressureWindow, FaultPlan, SlowDiskWindow
from repro.fault.retry import RetryPolicy

__all__ = [
    "BufferPressureWindow",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "SlowDiskWindow",
]
