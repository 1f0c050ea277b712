"""Unit tests: what the frozen benchmark (``benchmarks/e2e/``) uses of the
system under test still exists.

``run.py`` exits 2 ("cannot import the system under test") on every
workload when one of its ``from repro.<module> import <name>`` lines stops
resolving, and a traced run dies later when a config value ``layers.py``
sets is gone.  Those files cannot change with the code, so the code is
held to them here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from repro.config import ProgressConfig
from repro.estimators import estimator_names

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


def test_what_layers_sets_still_exists():
    """``executor.row_engine_ratio`` runs under ``engine="row"`` and
    ``estimators.ensemble_ratio`` under ``estimator="ensemble"``."""
    text = (E2E / "layers.py").read_text()
    assert 'engine="row"' in text and 'estimator="ensemble"' in text
    assert dataclasses.replace(ProgressConfig(), engine="row").engine == "row"
    assert "ensemble" in estimator_names()
