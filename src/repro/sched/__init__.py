"""Cooperative multi-query scheduling on one shared virtual clock.

The executor yields :data:`~repro.executor.base.PULSE` markers at
bounded-work boundaries; this package turns those markers into a
scheduler: N in-flight queries interleave in work quanta on one
:class:`~repro.database.Database`, each with its own progress indicator,
progress log and trace stream, while contention for the shared clock and
buffer pool produces the speed dips the paper induced synthetically.

Entry points:

* :class:`CooperativeScheduler` — submit/step/run/cancel.
* :mod:`repro.sched.policy` — round-robin, priority and weighted
  fair-share policies.

Production code reaches the scheduler through the
:class:`repro.api.Session` facade (or ``db.service()``) on top of it;
waiting on one query (``QueryHandle.result()``) is the service's loop,
not the scheduler's.
"""

from repro.config import DEFAULT_QUANTUM_PAGES
from repro.sched.policy import (
    PriorityPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    WeightedFairPolicy,
    make_policy,
)
from repro.sched.scheduler import CooperativeScheduler
from repro.sched.task import (
    CANCELLED,
    DONE_STATES,
    FAILED,
    FINISHED,
    PENDING,
    RUNNABLE_STATES,
    RUNNING,
    SHED,
    SUSPENDED,
    TIMED_OUT,
    QueryTask,
    SliceRecord,
)

__all__ = [
    "CANCELLED",
    "DEFAULT_QUANTUM_PAGES",
    "DONE_STATES",
    "FAILED",
    "FINISHED",
    "PENDING",
    "RUNNABLE_STATES",
    "RUNNING",
    "SHED",
    "SUSPENDED",
    "TIMED_OUT",
    "CooperativeScheduler",
    "PriorityPolicy",
    "QueryTask",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "SliceRecord",
    "WeightedFairPolicy",
    "make_policy",
]
