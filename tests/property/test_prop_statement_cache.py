"""Property: a plan taken from the statement cache is the plan made anew.

Over every tier-1 grid variant and every ``shapecheck`` template, monitored
and plain:

* **a cached plan is a fresh plan** — after it ran, the plan
  ``Database.prepare`` hands out equals a fresh ``Optimizer.plan`` of the
  same text node for node, estimates, costs, annotations and segment
  specs included (:func:`repro.planner.optimizer.plan_values`);
* **a hit run is a miss run** — the statement runs on two databases that
  are copies of one build and have run the same statements: on one its
  submission plans it (a miss), on the other it was prepared beforehand
  (a hit).  Both take their programs from the program cache.  Rows,
  ProgressLog, final ``clock.now``, ``cost_charged`` and the storage
  counters must be identical.

The grid cells are the ``tier1_runs`` fixture's ``warm`` and ``prepared``
lanes; each template case submits texts no database has planned before.
"""

from __future__ import annotations

import pytest

from repro.bench.perf import SHAPE_TEMPLATES
from repro.planner.optimizer import plan_values
from repro.workloads import grid
from tests.grid_runs import observe


def _assert_hit_equals_miss(missed, hit) -> None:
    assert missed.statements == (0, 1) and hit.statements == (1, 0)
    assert hit.programs == missed.programs and not hit.programs[1]
    assert hit.outcome == missed.outcome


def _assert_cached_is_fresh(hit) -> None:
    planned, after_the_run, fresh = hit.planned
    assert after_the_run is planned
    assert plan_values(planned) == plan_values(fresh)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", grid.TIER1_NAMES)
def test_tier1_variant(tier1_runs, name, monitored):
    prefix = "" if monitored else "plain-"
    cells = tier1_runs(name)
    hit = cells[prefix + "prepared"]
    _assert_hit_equals_miss(cells[prefix + "warm"], hit)
    _assert_cached_is_fresh(hit)


@pytest.mark.parametrize("monitored", [True, False], ids=["monitored", "plain"])
@pytest.mark.parametrize("name", SHAPE_TEMPLATES)
def test_shape_template(tier1_runs, name, monitored):
    # Both cache suites run the templates on one pair of shape_database()s.
    miss_db, hit_db = (tier1_runs.database(side, "shapes") for side in ("miss", "hit"))
    template = SHAPE_TEMPLATES[name]
    # Both sides run one statement of the shape first: neither compiles.
    warm_up = tier1_runs.unique_text(template.format(n=1))
    for db in (miss_db, hit_db):
        observe(db, warm_up, monitor=monitored)
    for n in (1, 7):
        sql = tier1_runs.unique_text(template.format(n=n))
        missed = observe(miss_db, sql, monitor=monitored)
        hit = observe(hit_db, sql, monitor=monitored, prepare=True)
        _assert_hit_equals_miss(missed, hit)
        _assert_cached_is_fresh(hit)
