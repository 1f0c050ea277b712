"""Unit tests: what the frozen benchmark (``benchmarks/e2e/``) uses of the
system under test still exists.

``run.py`` exits 2 ("cannot import the system under test") on every
workload when one of its ``from repro.<module> import <name>`` lines stops
resolving, and a traced run dies later when a config value ``layers.py``
sets is gone, or an attribute it reads of a session, handle, service or
scheduler.  Those files cannot change with the code, so the code is
held to them here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.config import ProgressConfig, SystemConfig
from repro.estimators import estimator_names
from repro.workloads import tpcr

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro.<module> import <name>``."""
    found = []
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro."
            ):
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_the_benchmark_imports_from_the_package():
    files = {file for file, _, _ in repro_imports()}
    assert {"layers.py", "workloads.py"} <= files


@pytest.mark.parametrize(
    "file, module, name", repro_imports(), ids=lambda value: str(value)
)
def test_every_name_the_benchmark_imports_resolves(file, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"benchmarks/e2e/{file}: from {module} import {name}"
    )


SERVICE_COUNTS = ("admitted", "queued", "shed", "deprioritized", "timed_out")


def _accounting_settled(service) -> None:
    assert service.inflight == 0
    for tenant in service.tenants:
        assert isinstance(tenant.name, str)
        assert tenant.inflight == 0 and tenant.inflight_cost_pages == 0


def test_what_the_benchmark_drives_at_run_time():
    """Every attribute ``measure.closed_pass`` / ``flood_pass`` and
    ``layers.Probes.session`` / ``call_probes`` read, used the way they
    use it, at a scale that runs in about a second."""
    config = SystemConfig().with_service(max_inflight=1, admission_queue_limit=0)
    db = tpcr.build_database(scale=0.002, subset_rows=60, config=config)
    sql = "select count(*) from orders"

    # closed_pass: one query per new connect(), monitored.
    session = db.connect()
    reports: list = []
    handle = session.submit(
        sql, monitor=True, keep_rows=True, on_report=reports.append
    )
    result = handle.result()
    assert result.rows and result.row_count == 1 and result.elapsed > 0
    assert handle.log is not None and handle.state == "finished"
    assert len(handle.task.slices) > 0
    assert set(SERVICE_COUNTS) <= session.service.counters.keys()
    _accounting_settled(session.service)

    # Probes.session: a prepared plan, traced.
    handle = db.connect().submit(db.prepare(sql), keep_rows=False, trace=True)
    handle.result()
    assert len(handle.trace()) > 0

    # call_probes: submit plan and text to db.service(), cancel each.
    service = db.service()
    for source in (db.prepare(sql), sql):
        service.submit(source, keep_rows=False).cancel()

    # flood_pass: tenants, a wrapped retire hook, submit all, step().
    service = db.service()
    service.register_tenant("gold", weight=4.0)
    retired: list = []
    settle = service.scheduler.on_retire

    def on_retire(task):
        retired.append(task.name)
        settle(task)

    service.scheduler.on_retire = on_retire
    handles = [
        service.submit(
            sql, name=name, tenant="gold", monitor=True, keep_rows=False,
            timeout=1e6, on_report=None,
        )
        for name in ("a", "b")  # b is rejected: the queue holds none
    ]
    while service.step() is not None:
        pass
    assert len(service.scheduler.slices) > 0 and retired == ["a"]
    admitted, rejected = handles
    assert admitted.state == "finished"
    assert admitted.task.log is not None
    assert admitted.task.result.row_count == 1
    assert rejected.state == "rejected" and rejected.task is None
    assert service.counters["admitted"] == 1
    _accounting_settled(service)


def test_what_layers_sets_still_exists():
    """``executor.row_engine_ratio`` runs under ``engine="row"`` and
    ``estimators.ensemble_ratio`` under ``estimator="ensemble"``."""
    text = (E2E / "layers.py").read_text()
    assert 'engine="row"' in text and 'estimator="ensemble"' in text
    assert dataclasses.replace(ProgressConfig(), engine="row").engine == "row"
    assert "ensemble" in estimator_names()
