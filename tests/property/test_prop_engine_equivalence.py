"""Property: the fused batch engine is bit-identical to the row engine.

The batch engine (``progress.engine = "batch"``) compiles each plan into
fused per-pipeline loops and ships rows in :class:`Batch` objects — a
pure real-time optimization.  Its contract is *bit identity* with the
reference volcano row engine: the same rows in the same order, the same
ProgressLog (every report field, float-for-float), and the same final
virtual-clock charge totals.  No tolerance anywhere: virtual costs are
computed by the identical expressions in the identical order, so even
float rounding must agree.

Checked on every tier-1 grid variant (~40 cells: six plan shapes, four
skews, four selectivities, three scales) over the ``tier1_runs`` records:
the row lane against the batch lane that compiled its programs (``cold``)
and the one that took them all from the cache (``warm``) — a cached
program is only ever re-bound to the new query's own ``env`` — and the
second pass of both (``row-again``, ``warm-again``), which re-executes
each cached plan on a statement-cache hit.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.executor import fused
from repro.workloads import grid
from tests.grid_runs import VARIANTS, observe


def _assert_identical(batch, row) -> None:
    # Result stream: same rows, same order, same count.
    assert batch.result.row_count == row.result.row_count
    assert batch.result.rows == row.result.rows
    # Progress history: every report, float-for-float.  ProgressReport
    # and ProgressLog are dataclasses, so == compares all fields.
    assert batch.log == row.log
    # Virtual-clock charges per resource (U accounting) and elapsed time.
    assert batch.charged == row.charged
    assert batch.result.elapsed == row.result.elapsed


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant_bit_identical(tier1_runs, name):
    cells = tier1_runs(name)
    _assert_identical(cells["cold"], cells["row"])
    _assert_identical(cells["warm"], cells["row"])
    # The repeat compiled nothing new: every fused program was a hit.
    hits, misses = cells["warm"].programs
    assert misses == 0 and hits > 0
    # A statement-cache hit re-executes the plan the first pass ran.
    _assert_identical(cells["warm-again"], cells["row-again"])
    assert cells["row-again"].result.rows == cells["row"].result.rows
    assert cells["row-again"].statements == cells["warm-again"].statements == (1, 0)


def _counters(cell) -> list[tuple]:
    return [
        (seg.input_rows, seg.input_bytes, seg.output_rows, seg.output_bytes,
         seg.extra_bytes, seg.started, seg.finished)
        for seg in cell.tracker.segments
    ]


@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant_same_counters(tier1_runs, name):
    """No report reads every counter, so the outcome alone could hide a
    counting difference: each batch lane leaves the row lane's counters,
    and the query result's segment keeps rows but no bytes."""
    cells = tier1_runs(name)
    row = _counters(cells["row"])
    assert [c[3] for c, seg in zip(row, cells["row"].tracker.segments)
            if seg.final] == [0]
    for lane in ("cold", "warm", "prepared", "traced"):
        assert _counters(cells[lane]) == row, lane
    assert _counters(cells["warm-again"]) == _counters(cells["row-again"])


def test_each_cell_runs_once(tier1_runs):
    """A second request for a variant's records runs nothing."""
    first = tier1_runs("xs-hot-join2-half")
    before = tier1_runs.runs, fused.code_cache_info()
    assert tier1_runs("xs-hot-join2-half") is first
    assert (tier1_runs.runs, fused.code_cache_info()) == before


def _assert_same_as_row_engine(tier1_runs, name: str, batch_rows: int) -> None:
    """Both sides run on fresh copies of the dataset: clocks start at zero."""
    variant = VARIANTS[name]
    batch, row = (
        observe(tier1_runs.fresh(variant.dataset_key, config), variant.sql)
        for config in (SystemConfig().with_progress(batch_rows=batch_rows),
                       SystemConfig().with_progress(engine="row"))
    )
    assert batch.result.rows == row.result.rows
    assert batch.log == row.log


def test_batch_rows_one_degenerates_to_row_transport(tier1_runs):
    """batch_rows=1 changes transport granularity, never results."""
    _assert_same_as_row_engine(tier1_runs, "xs-uniform-join3-half", 1)


def test_oversized_batch_rows_still_flushes_at_pulses(tier1_runs):
    """A huge batch_rows flushes at PULSE boundaries, results unchanged."""
    _assert_same_as_row_engine(tier1_runs, "xs-uniform-scan-half", 1 << 20)


def test_compiled_width_is_the_spill_schemas_row_width(tier1_runs):
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
        variant = VARIANTS[name]
        db = tier1_runs.database("plans", variant.dataset_key)
        for node in collect_nodes(db.prepare(variant.sql).root):
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
