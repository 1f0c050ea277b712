"""Property: a program taken from the cache is the program compiled anew.

Over every tier-1 grid variant and every ``shapecheck`` template, monitored
and plain:

* **equal key => equal text** — every statement's plan-shape key and the
  text the compiler generates for *that* plan are collected; one key never
  maps to two texts (the invariant a cache hit relies on), and statements
  of one template that differ in their literals share one key;
* **a hit is a forced miss** — the same statement runs on two databases
  that are copies of one build and have run the same statements, once with
  the cache cleared just before (a miss: compiled from this plan) and once
  straight after (a hit: bound to the program the other database's plan
  compiled).  Neither database has planned the text before.  Rows,
  ProgressLog, final ``clock.now``, ``cost_charged`` and the storage
  counters must be identical.

The grid cells are the ``tier1_runs`` fixture's ``cold`` and ``warm``
lanes; keys and texts are taken on a copy that only plans.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import SHAPE_TEMPLATES
from repro.core.indicator import ProgressIndicator
from repro.executor import fused
from repro.executor.base import ExecContext
from repro.workloads import grid
from tests.grid_runs import VARIANTS, observe

#: Plan-shape key -> (text, statement) of everything this module compiled.
_TEXT_OF: dict = {}


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


def _assert_hit_equals_forced_miss(missed, hit) -> None:
    assert missed.statements == hit.statements == (0, 1)
    compiled = missed.programs[1]
    assert compiled >= 1 and missed.programs[0] == 0
    assert hit.programs == (compiled, 0)
    assert hit.outcome == missed.outcome


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant(tier1_runs, name, monitored):
    variant = VARIANTS[name]
    prefix = "" if monitored else "plain-"
    cells = tier1_runs(name)
    _assert_hit_equals_forced_miss(cells[prefix + "cold"], cells[prefix + "warm"])
    plans = tier1_runs.database("plans", variant.dataset_key)
    _record_text(plans, variant.sql, monitored)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", SHAPE_TEMPLATES)
def test_shape_template(tier1_runs, name, monitored):
    # Both cache suites run the templates on one pair of shape_database()s.
    miss_db, hit_db = (tier1_runs.database(side, "shapes") for side in ("miss", "hit"))
    template = SHAPE_TEMPLATES[name]
    plans = tier1_runs.database("plans", "shapes")
    keys = {_record_text(plans, template.format(n=n), monitored) for n in (1, 7, 23)}
    assert len(keys) == 1  # literals are not in the key
    for n in (1, 7):
        sql = tier1_runs.unique_text(template.format(n=n))
        missed = observe(miss_db, sql, monitor=monitored, clear=True)
        _assert_hit_equals_forced_miss(missed, observe(hit_db, sql, monitor=monitored))
