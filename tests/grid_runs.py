"""The tier-1 grid, executed once per session and recorded cell by cell.

A *cell* is one run of a grid variant's statement under one combination of
engine, monitored or plain, traced or not, statement-cache hit or miss, and
program-cache hit or forced miss.  Each combination is a *lane*: one
database per dataset that runs every tier-1 variant of that dataset, in
``TIER1_NAMES`` order.  Reports carry absolute virtual times: two lanes'
records compare only because each lane of a dataset is a copy of one build
that runs the same statements in the same order.  The relation suites only
read :class:`Cell` records; a new relation adds assertions, not builds.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.bench.perf import shape_database
from repro.config import SystemConfig
from repro.core.segments import planned_segments
from repro.database import Database
from repro.executor import fused
from repro.obs.observatory.leaderboard import grid_config
from repro.planner.optimizer import Optimizer
from repro.sql.binder import Binder
from repro.sql.parser import parse_select
from repro.workloads import grid, tpcr

VARIANTS = grid.variants_by_name()
_ROW = SystemConfig().with_progress(engine="row")

#: lane -> (config, ``observe`` keywords), in the order a variant's cells
#: run: after ``cold`` compiled, every batch lane takes its programs from
#: the cache, and only ``prepared`` is a statement hit.
LANES: dict[str, tuple[Optional[SystemConfig], dict]] = {
    "row": (_ROW, {"estimator": "paper"}),
    "cold": (None, {"estimator": "paper", "clear": True}),
    "warm": (None, {"estimator": "paper"}),
    "prepared": (None, {"estimator": "paper", "prepare": True}),
    # The logged execution every estimator is replayed over.
    "traced": (None, {"estimator": "paper", "trace": True}),
    "plain-cold": (None, {"monitor": False, "clear": True}),
    "plain-warm": (None, {"monitor": False}),
    "plain-prepared": (None, {"monitor": False, "prepare": True}),
    # The leaderboard's work_mem: hash joins and sorts spill.
    "spill": (grid_config(),
              {"estimator": "paper", "keep_rows": False, "trace": False}),
}

#: Lanes that run every text again after the first pass (``<lane>-again``
#: cells): a statement-cache hit re-executes the plan the first pass ran.
AGAIN = ("row", "warm")

#: Datasets that are not grid cells; a grid dataset is its ``(scale, skew)``.
_BUILDS = {
    "tpcr": lambda: tpcr.build_database(scale=0.002, subset_rows=120),
    "tpcr-60": lambda: tpcr.build_database(scale=0.002, subset_rows=60),
    "shapes": shape_database,
}


@dataclass(frozen=True)
class Cell:
    """What one run left behind."""

    result: Any
    log: Any
    state: str
    now: float
    charged: dict
    storage: tuple
    #: (hits, misses) the run added to the statement and program caches.
    statements: tuple
    programs: tuple
    #: Monitored runs: ``(final_snapshot(), snapshot())`` after the end.
    closing: Optional[tuple]
    #: Monitored runs: the query's work tracker as the run left it.
    tracker: Any
    #: ``prepare=True``: the plan before and after the run, and a fresh plan.
    planned: Optional[tuple]
    #: ``trace=True``: the sealed trace's events.
    events: Optional[tuple]

    @property
    def outcome(self) -> tuple:
        """Everything two runs of one statement must agree on."""
        return (self.result.rows, self.log, self.now, self.charged, self.storage)


def _added(after, before) -> tuple:
    return after.hits - before.hits, after.misses - before.misses


def observe(db, sql, *, monitor=True, prepare=False, clear=False, **options) -> Cell:
    """Run ``sql`` once on ``db`` from a cold buffer pool and record it."""
    planned = db.prepare(sql) if prepare else None
    if clear:
        fused.code_cache_clear()
    statements, programs = db.cache_info().statements, fused.code_cache_info()
    db.restart()
    handle = db.connect().submit(sql, monitor=monitor, **options)
    result = handle.result()
    statements = _added(db.cache_info().statements, statements)
    programs = _added(fused.code_cache_info(), programs)
    if prepare:
        fresh = Optimizer(db.config).plan(Binder(db.catalog).bind(parse_select(sql)))
        planned_segments(fresh)
        planned = (planned, db.prepare(sql), fresh)
    estimator = handle.task.indicator.estimator if monitor else None
    trace = handle.trace()
    return Cell(
        result=result,
        log=handle.log,
        state=handle.state,
        now=db.clock.now,
        charged=dict(db.clock.cost_charged),
        storage=(db.disk.io_counters(), db.buffer_pool.hits, db.buffer_pool.misses,
                 db.disk.temp_file_count()),
        statements=statements,
        programs=programs,
        closing=(estimator.final_snapshot(), estimator.snapshot()) if monitor else None,
        tracker=estimator.tracker if monitor else None,
        planned=planned,
        events=None if trace is None else trace.events,
    )


class Tier1Runs:
    """The session's dataset builds, named databases and tier-1 records."""

    def __init__(self) -> None:
        self.builds: dict = {}  # dataset -> the pickled, never-run build
        self.databases: dict = {}  # (lane, dataset) -> Database
        self.cells: dict = {}  # variant name -> {lane: Cell}
        self.runs = 0  # cells run so far
        self._blanks = itertools.count(1)

    def fresh(self, dataset, config: Optional[SystemConfig] = None) -> Database:
        """A new copy of ``dataset`` as built, running under ``config``."""
        if dataset not in self.builds:
            build = _BUILDS.get(dataset) or (lambda: grid.build_dataset(*dataset))
            self.builds[dataset] = pickle.dumps(build())
        db = pickle.loads(self.builds[dataset])
        if config is not None:
            # Only fields ``Database.__init__`` and ``analyze`` never read
            # may differ, so the copy is what a build under ``config`` makes.
            assert db.config == replace(config, progress=db.config.progress,
                                        work_mem_pages=db.config.work_mem_pages)
            db.config = config
        return db

    def unique_text(self, sql: str) -> str:
        """``sql`` plus trailing blanks no caller got before: never planned."""
        return sql + " " * next(self._blanks)

    def database(self, lane: str, dataset, config=None) -> Database:
        """The one database ``lane`` runs ``dataset``'s statements on."""
        if (lane, dataset) not in self.databases:
            self.databases[lane, dataset] = self.fresh(dataset, config)
        return self.databases[lane, dataset]

    def __call__(self, name: str) -> dict[str, Cell]:
        """Variant ``name``'s cells by lane.  The first request for any
        variant of a dataset runs all of the dataset's tier-1 variants on
        fresh lane copies, then the ``AGAIN`` pass, and drops the copies."""
        if name not in self.cells:
            dataset = VARIANTS[name].dataset_key
            lanes = {lane: self.fresh(dataset, cfg) for lane, (cfg, _) in LANES.items()}
            variants = [variant for variant in map(VARIANTS.get, grid.TIER1_NAMES)
                        if variant.dataset_key == dataset]
            for names, suffix in ((LANES, ""), (AGAIN, "-again")):
                for variant, lane in itertools.product(variants, names):
                    cell = observe(lanes[lane], variant.sql, **LANES[lane][1])
                    self.cells.setdefault(variant.name, {})[lane + suffix] = cell
                    self.runs += 1
        return self.cells[name]
