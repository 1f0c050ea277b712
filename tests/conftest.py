"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

# The plan/segment invariant gate (repro.analysis.gate) is warn-only in
# production but strict under test: any plan the suite executes that
# violates a structural invariant fails loudly instead of skewing results.
os.environ.setdefault("REPRO_VERIFY", "strict")

from repro.config import SystemConfig
from repro.database import Database
from repro.storage.schema import Column, Schema
from repro.storage.types import FLOAT, INTEGER, string
from repro.workloads import queries, tpcr


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig()


@pytest.fixture
def small_db() -> Database:
    """A tiny two-table database for executor/planner unit tests."""
    db = Database()
    db.create_table(
        "t1",
        Schema([Column("a", INTEGER), Column("b", INTEGER), Column("s", string(20))]),
        [(i, i % 10, f"row{i}") for i in range(100)],
    )
    db.create_table(
        "t2",
        Schema([Column("a", INTEGER), Column("v", FLOAT)]),
        [(i % 50, float(i)) for i in range(200)],
    )
    db.analyze()
    return db


@pytest.fixture(scope="session")
def tiny_tpcr() -> Database:
    """A session-shared tiny TPC-R database (read-only tests)."""
    return tpcr.build_database(scale=0.002, subset_rows=60)


@pytest.fixture(scope="session")
def tpcr_queries() -> dict[str, str]:
    return queries.PAPER_QUERIES


@pytest.fixture(scope="session")
def shipped_lint() -> tuple[int, str]:
    """``(exit status, report)`` of ``repro-analyze lint src examples``: the
    shipped tree is parsed and linted once per session, through the command
    CI runs, and every shipped-tree assertion reads this."""
    from repro.analysis.cli import main

    root = Path(__file__).resolve().parents[1]
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        status = main(["lint", str(root / "src"), str(root / "examples")])
    return status, report.getvalue()
