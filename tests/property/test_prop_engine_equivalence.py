"""Property: the fused batch engine is bit-identical to the row engine.

The batch engine (``progress.engine = "batch"``) compiles each plan into
fused per-pipeline loops and ships rows in :class:`Batch` objects — a
pure real-time optimization.  Its contract is *bit identity* with the
reference volcano row engine: the same rows in the same order, the same
ProgressLog (every report field, float-for-float), and the same final
virtual-clock charge totals.  No tolerance anywhere: virtual costs are
computed by the identical expressions in the identical order, so even
float rounding must agree.

This property is checked across every tier-1 workload grid variant
(~40 cells spanning scan/sort/agg/join/self-join/multi-join shapes, four
skew profiles, four selectivity levels, three scales) — the same grid CI
scores the estimator on.  Each engine keeps its own database (identical
build: same scale, skew and seed), restarted before every variant so
each comparison starts from a cold buffer pool and the engines' clock
histories stay pairwise identical.

Every variant is compared twice in a row: the first batch run may compile
its generated program, the second must take it from the program cache
(same plan-shape key, no emitter run) and still be bit-identical — a
cached program is only ever re-bound to the new query's own ``env``.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.executor import fused
from repro.workloads import grid

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Engine -> (dataset_key -> Database); built lazily, shared module-wide.
_DATABASES: dict[str, dict] = {"row": {}, "batch": {}}


def _database(engine: str, variant: grid.Variant):
    cache = _DATABASES[engine]
    db = cache.get(variant.dataset_key)
    if db is None:
        config = SystemConfig().with_progress(engine=engine)
        db = cache[variant.dataset_key] = variant.build_database(config)
    return db


def _run(engine: str, variant: grid.Variant):
    """One monitored run; returns (rows, log, charge-delta-by-resource)."""
    db = _database(engine, variant)
    db.restart()
    before = dict(db.clock.cost_charged)
    handle = db.connect().submit(
        variant.sql, name=f"eq-{variant.name}-{engine}", monitor=True
    )
    result = handle.result()
    delta = {
        res: total - before.get(res, 0.0)
        for res, total in db.clock.cost_charged.items()
    }
    return result, handle.log, delta


def _assert_identical(variant: grid.Variant) -> None:
    row_result, row_log, row_u = _run("row", variant)
    batch_result, batch_log, batch_u = _run("batch", variant)

    # Result stream: same rows, same order, same count.
    assert batch_result.row_count == row_result.row_count
    assert batch_result.rows == row_result.rows

    # Progress history: every report, float-for-float.  ProgressReport
    # and ProgressLog are dataclasses, so == compares all fields.
    assert len(batch_log) == len(row_log)
    for got, want in zip(batch_log, row_log):
        assert got == want
    assert batch_log == row_log

    # Final virtual-clock charges per resource (U accounting).
    assert batch_u == row_u

    # Virtual elapsed time, for good measure (implied by the log).
    assert batch_result.elapsed == row_result.elapsed


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant_bit_identical(name):
    variant = grid.variants_by_name()[name]
    _assert_identical(variant)
    before = fused.code_cache_info()
    _assert_identical(variant)
    after = fused.code_cache_info()
    # The repeat compiled nothing new: every fused program was a hit.
    assert after.misses == before.misses
    assert after.hits > before.hits


def _run_fresh(variant: grid.Variant, tag: str, **progress):
    """Run on a freshly built database (clock history starts at zero).

    The shared ``_DATABASES`` caches stay pairwise comparable because the
    two engines run the same query sequence; a one-off configuration
    needs a fresh database on *both* sides, or absolute report
    timestamps diverge.
    """
    config = SystemConfig().with_progress(**progress)
    db = grid.build_dataset(*variant.dataset_key, config=config)
    db.restart()
    handle = db.connect().submit(
        variant.sql, name=f"eq-{tag}", monitor=True
    )
    return handle.result(), handle.log


def test_batch_rows_one_degenerates_to_row_transport():
    """batch_rows=1 changes transport granularity, never results."""
    variant = grid.variants_by_name()["xs-uniform-join3-half"]
    tiny_result, tiny_log = _run_fresh(
        variant, "batchrows-1", engine="batch", batch_rows=1
    )
    row_result, row_log = _run_fresh(variant, "batchrows-1-row", engine="row")
    assert tiny_result.rows == row_result.rows
    assert tiny_log == row_log


def test_oversized_batch_rows_still_flushes_at_pulses():
    """A huge batch_rows flushes at PULSE boundaries, results unchanged."""
    variant = grid.variants_by_name()["xs-uniform-scan-half"]
    huge_result, huge_log = _run_fresh(
        variant, "batchrows-huge", engine="batch", batch_rows=1 << 20
    )
    row_result, row_log = _run_fresh(variant, "batchrows-huge-row", engine="row")
    assert huge_result.rows == row_result.rows
    assert huge_log == row_log


def test_compiled_width_is_the_spill_schemas_row_width():
    """A partition sink hands ``HeapFile.append`` the width the compiler
    derives for ``output_bytes`` instead of letting it measure the row:
    on both inputs of every hash join the tier-1 grid plans, that sum is
    ``_spill_schema(columns).row_width(row)`` for NULL, empty, short and
    long strings alike."""
    from repro.analysis.invariants import collect_nodes
    from repro.executor.hash_join import _spill_schema
    from repro.planner.physical import HashJoinNode
    from repro.storage.types import StringType

    fills = (None, "", "x", "y" * 37)
    sides = 0
    for name in grid.TIER1_NAMES:
        variant = grid.variants_by_name()[name]
        root = _database("batch", variant).prepare(variant.sql).root
        for node in collect_nodes(root):
            if not isinstance(node, HashJoinNode):
                continue
            for columns in (node.build.columns, node.probe.columns):
                types = [c.type for c in columns]
                fixed, var_slots = fused._Compiler._width_parts(types)
                schema = _spill_schema(columns)
                for fill in fills:
                    row = tuple(
                        fill if isinstance(t, StringType) else 7 for t in types
                    )
                    compiled = fixed + sum(len(row[i] or "") for i in var_slots)
                    assert compiled == schema.row_width(row), (name, columns)
                sides += 1
    assert sides >= 20
