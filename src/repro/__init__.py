"""repro — a reproduction of "Toward a Progress Indicator for Database
Queries" (Luo, Naughton, Ellmann, Watzke; SIGMOD 2004).

The package contains a complete simulated RDBMS substrate (storage, buffer
pool, statistics, SQL front end, cost-based optimizer, volcano executor on
a virtual clock) and, on top of it, the paper's contribution: a query
progress indicator that segments plans at blocking operators, measures
work in pages of bytes processed (U), continuously refines the optimizer's
cost estimate from run-time observations, and converts remaining U to time
through the observed execution speed.

Quick start::

    from repro import Database, SystemConfig
    from repro.workloads import tpcr

    db = tpcr.build_database(scale=0.01)
    session = db.connect()
    handle = session.submit("select * from lineitem")
    result = handle.result()
    for report in handle.log:
        print(report.format_line())

Several ``submit`` calls on one session run interleaved on the shared
virtual clock — each with its own progress indicator (see
:mod:`repro.sched` and :mod:`repro.api`).
"""

from repro.api import QueryHandle, Session
from repro.config import (
    CostModelConfig,
    PlannerConfig,
    ProgressConfig,
    SystemConfig,
)
from repro.core.indicator import ProgressIndicator
from repro.core.report import ProgressReport
from repro.database import Database, MonitoredResult
from repro.errors import ReproError
from repro.sim.load import CPU, IO, InterferenceWindow, LoadProfile

__version__ = "2.0.0"

__all__ = [
    "Database",
    "MonitoredResult",
    "Session",
    "QueryHandle",
    "SystemConfig",
    "CostModelConfig",
    "PlannerConfig",
    "ProgressConfig",
    "ProgressIndicator",
    "ProgressReport",
    "LoadProfile",
    "InterferenceWindow",
    "IO",
    "CPU",
    "ReproError",
    "__version__",
]
