"""Property: a program taken from the cache is the program compiled anew.

Over every tier-1 grid variant and every ``shapecheck`` template, monitored
and plain:

* **equal key => equal text** — every statement's plan-shape key and the
  text the compiler generates for *that* plan are collected; one key never
  maps to two texts (the invariant a cache hit relies on), and statements
  of one template that differ in their literals share one key;
* **a hit is a forced miss** — the same statement runs on two databases
  built alike, once with the cache cleared just before (a miss: compiled
  from this plan) and once straight after (a hit: bound to the program the
  other database's plan compiled).  Rows, ProgressLog, final ``clock.now``,
  ``cost_charged`` and the storage counters must be identical.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import SHAPE_TEMPLATES
from repro.config import SystemConfig
from repro.core.indicator import ProgressIndicator
from repro.executor import fused
from repro.executor.base import ExecContext
from repro.workloads import grid, tpcr

#: label -> (database the misses run on, database the hits run on).
_PAIRS: dict = {}
#: Plan-shape key -> (text, statement) of everything this module compiled.
_TEXT_OF: dict = {}


def _pair(label, build):
    if label not in _PAIRS:
        _PAIRS[label] = (build(), build())
    return _PAIRS[label]


def _shape_pair():
    config = SystemConfig(work_mem_pages=1)
    return _pair(
        "shapes",
        lambda: tpcr.build_database(
            scale=0.002, subset_rows=60, config=config, with_indexes=True
        ),
    )


def _record_text(db, sql, monitored):
    """File the statement's (key, freshly generated text); one text a key."""
    planned = db.prepare(sql)
    tracker = None
    if monitored:
        indicator = ProgressIndicator(planned, db.clock, db.config)
        tracker = indicator.tracker
        indicator.abort()
    ctx = ExecContext(db.clock, db.disk, db.buffer_pool, db.config, tracker=tracker)
    nodes, exprs = [], []
    key = fused._plan_key(planned.root, ctx, nodes, exprs)
    text = fused._Compiler(db.config, monitored, nodes, exprs).compile(planned.root)
    seen = _TEXT_OF.setdefault(key, (text, sql))
    assert seen[0] == text, f"one key, two texts: {seen[1]!r} and {sql!r}"
    return key


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


def _hit_equals_forced_miss(pair, sql, monitored):
    miss_db, hit_db = pair
    _record_text(miss_db, sql, monitored)
    fused.code_cache_clear()
    missed = _observe(miss_db, sql, monitored)
    compiled = fused.code_cache_info()
    assert compiled.misses >= 1 and compiled.hits == 0
    hit = _observe(hit_db, sql, monitored)
    after = fused.code_cache_info()
    assert after.misses == compiled.misses and after.hits == compiled.misses
    assert hit == missed


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant(name, monitored):
    variant = grid.variants_by_name()[name]
    pair = _pair(variant.dataset_key, variant.build_database)
    _hit_equals_forced_miss(pair, variant.sql, monitored)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", SHAPE_TEMPLATES)
def test_shape_template(name, monitored):
    pair = _shape_pair()
    template = SHAPE_TEMPLATES[name]
    keys = {_record_text(pair[0], template.format(n=n), monitored) for n in (1, 7, 23)}
    assert len(keys) == 1  # literals are not in the key
    for n in (1, 7):
        _hit_equals_forced_miss(pair, template.format(n=n), monitored)
