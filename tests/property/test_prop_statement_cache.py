"""Property: a plan taken from the statement cache is the plan made anew.

Over every tier-1 grid variant and every ``shapecheck`` template, monitored
and plain:

* **a cached plan is a fresh plan** — after it ran, the plan
  ``Database.prepare`` hands out equals a fresh ``Optimizer.plan`` of the
  same text node for node, estimates, costs, annotations and segment
  specs included (:func:`repro.planner.optimizer.plan_values`);
* **a hit run is a miss run** — the statement runs on two databases built
  alike: on one its submission plans it (a miss), on the other it was
  prepared beforehand (a hit).  Rows, ProgressLog, final ``clock.now``,
  ``cost_charged`` and the storage counters must be identical.

Each case submits its own text (the statement plus a run of trailing
blanks no other case uses): the key is the exact text, so the miss side
plans it whatever ran on its database before.
"""

from __future__ import annotations

import itertools

import pytest

from repro.bench.perf import SHAPE_TEMPLATES
from repro.config import SystemConfig
from repro.core.segments import planned_segments
from repro.planner.optimizer import Optimizer, plan_values
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.workloads import grid, tpcr

#: label -> (database the misses run on, database the hits run on).
_PAIRS: dict = {}
_BLANKS = itertools.count(1)


def _pair(label, build):
    if label not in _PAIRS:
        _PAIRS[label] = (build(), build())
    return _PAIRS[label]


def _observe(db, sql, monitored):
    db.restart()
    handle = db.connect().submit(sql, monitor=monitored)
    result = handle.result()
    return (
        result.rows,
        handle.log,
        db.clock.now,
        dict(db.clock.cost_charged),
        db.disk.io_counters(),
        (db.buffer_pool.hits, db.buffer_pool.misses),
        db.disk.temp_file_count(),
    )


def _statements(db):
    info = db.cache_info().statements
    return info.hits, info.misses


def _hit_equals_miss(pair, statement, monitored):
    miss_db, hit_db = pair
    sql = statement + " " * next(_BLANKS)
    planned = hit_db.prepare(sql)

    hits, misses = _statements(miss_db)
    missed = _observe(miss_db, sql, monitored)
    assert _statements(miss_db) == (hits, misses + 1)
    hits, misses = _statements(hit_db)
    hit = _observe(hit_db, sql, monitored)
    assert _statements(hit_db) == (hits + 1, misses)
    assert hit == missed

    assert hit_db.prepare(sql) is planned
    fresh = Optimizer(hit_db.config).plan(
        Binder(hit_db.catalog).bind(parse_select(sql))
    )
    planned_segments(fresh)
    assert plan_values(planned) == plan_values(fresh)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant(name, monitored):
    variant = grid.variants_by_name()[name]
    pair = _pair(variant.dataset_key, variant.build_database)
    _hit_equals_miss(pair, variant.sql, monitored)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", SHAPE_TEMPLATES)
def test_shape_template(name, monitored):
    config = SystemConfig(work_mem_pages=1)
    pair = _pair(
        "shapes",
        lambda: tpcr.build_database(
            scale=0.002, subset_rows=60, config=config, with_indexes=True
        ),
    )
    for n in (1, 7):
        _hit_equals_miss(pair, SHAPE_TEMPLATES[name].format(n=n), monitored)
