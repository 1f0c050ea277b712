"""Pluggable progress estimators and their registry.

The estimation layer behind :class:`repro.core.indicator.ProgressIndicator`
is a registry of named :class:`~repro.estimators.base.Estimator`
strategies.  Pick one per query (``Session.submit(estimator=...)``), per
system (``ProgressConfig.estimator``), or let the online selector race
them all (``estimator="ensemble"``).

Built-in estimators (see ``docs/estimators.md``):

===========  ==========================================================
name         strategy
===========  ==========================================================
``paper``    the paper's §4.5 blend ``E = p*E2 + (1-p)*E1`` (default)
``dne``      driver-node extrapolation ``E = y/p`` (König et al. spirit)
``tgn``      optimizer-anchored ``E = max(E1, y)`` (never extrapolate)
``history``  paper blend with per-plan-signature correction factors
             learned from prior executions (Ivanov & Bartunov spirit)
``ensemble`` online selector over every registered candidate above
===========  ==========================================================

Registering your own::

    from repro.estimators import register_estimator
    from repro.estimators.refinement import RefinementEstimator

    class Pessimist(RefinementEstimator):
        name = "pessimist"
        def _blend(self, y, p, e1):
            return max(y / p if p > 0 else e1, 2.0 * e1)

    register_estimator("pessimist", lambda specs, tracker, ctx: Pessimist(specs, tracker))

A registered estimator automatically joins the ensemble's candidate set
and gets its own column in the accuracy leaderboard (the observatory
replays it over each cell's logged execution).  Registration order is
the ensemble's tie-break order, so built-ins keep priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.segments import SegmentSpec
from repro.estimators.base import (
    INPUT_SOURCES,
    EstimateSnapshot,
    Estimator,
    InputEstimate,
    SegmentEstimate,
)
from repro.estimators.ensemble import EnsembleEstimator
from repro.estimators.history import HistoryEstimator, HistoryStore
from repro.estimators.refinement import (
    DriverNodeEstimator,
    PaperEstimator,
    RefinementEstimator,
    TotalGetNextEstimator,
)
from repro.executor.work import WorkTracker

#: The default estimator name (``ProgressConfig.estimator``'s default).
DEFAULT_ESTIMATOR = "paper"

#: The selector's registry name (not itself an ensemble candidate).
ENSEMBLE = "ensemble"


@dataclass(frozen=True)
class EstimatorContext:
    """Cross-query resources a factory may bind (all optional)."""

    #: The owning database's history store (None: fresh, nothing learned).
    history: Optional[HistoryStore] = None


EstimatorFactory = Callable[
    [list[SegmentSpec], WorkTracker, EstimatorContext], Estimator
]

#: name -> factory, in registration order (= ensemble candidate order).
_FACTORIES: dict[str, EstimatorFactory] = {}


def register_estimator(name: str, factory: EstimatorFactory) -> None:
    """Add (or replace) a named estimator; it joins the ensemble too."""
    if name == ENSEMBLE:
        raise ValueError(f"{ENSEMBLE!r} is reserved for the selector")
    _FACTORIES[name] = factory


def estimator_names(include_ensemble: bool = True) -> tuple[str, ...]:
    """Registered estimator names, in registration order."""
    names = tuple(_FACTORIES)
    return names + (ENSEMBLE,) if include_ensemble else names


def make_estimator(
    name: str,
    specs: list[SegmentSpec],
    tracker: WorkTracker,
    context: Optional[EstimatorContext] = None,
) -> Estimator:
    """Instantiate a registered estimator (or the ensemble) by name."""
    ctx = context if context is not None else EstimatorContext()
    if name == ENSEMBLE:
        candidates = [
            factory(specs, tracker, ctx) for factory in _FACTORIES.values()
        ]
        return EnsembleEstimator(specs, tracker, candidates)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(estimator_names())
        raise ValueError(
            f"unknown estimator {name!r} (registered: {known})"
        ) from None
    return factory(specs, tracker, ctx)


def _make_history(
    specs: list[SegmentSpec], tracker: WorkTracker, ctx: EstimatorContext
) -> Estimator:
    store = ctx.history if ctx.history is not None else HistoryStore()
    return HistoryEstimator(specs, tracker, store)


register_estimator("paper", lambda specs, tracker, ctx: PaperEstimator(specs, tracker))
register_estimator("dne", lambda specs, tracker, ctx: DriverNodeEstimator(specs, tracker))
register_estimator("tgn", lambda specs, tracker, ctx: TotalGetNextEstimator(specs, tracker))
register_estimator("history", _make_history)


__all__ = [
    "INPUT_SOURCES",
    "DEFAULT_ESTIMATOR",
    "ENSEMBLE",
    "EstimateSnapshot",
    "Estimator",
    "EstimatorContext",
    "EstimatorFactory",
    "InputEstimate",
    "SegmentEstimate",
    "RefinementEstimator",
    "PaperEstimator",
    "DriverNodeEstimator",
    "TotalGetNextEstimator",
    "HistoryEstimator",
    "HistoryStore",
    "EnsembleEstimator",
    "register_estimator",
    "estimator_names",
    "make_estimator",
]
