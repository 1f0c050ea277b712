"""The online selector: back-test every candidate, report the best one.

König et al., "A Statistical Approach Towards Robust Progress
Estimation" (PAPERS.md), make the case that no single estimator wins
everywhere — a portfolio with per-query selection beats each member.
:class:`EnsembleEstimator` is that portfolio over this repo's registered
candidates (paper, dne, tgn, history, plus anything user-registered).

**Scoring rule** (documented contract — ``docs/estimators.md``): the
selector back-tests candidates against *observed* progress, the only
ground truth available mid-flight.  At every refinement tick it records
each candidate's current output-cardinality prediction for every
unfinished segment.  When a segment finishes, its exact cardinality is
known, and each candidate is charged the absolute log-error of its last
pre-finish prediction::

    penalty += | ln( max(predicted, 1) / max(actual, 1) ) |

Accumulated penalties order the candidates; the selector reports the
snapshot of the lowest-penalty candidate, breaking ties by registration
order (the paper baseline first, so an evidence-free selector *is* the
paper estimator).  To avoid flapping on noise, switching away from the
current choice requires a cumulative advantage of at least
:data:`SWITCH_MARGIN` (ln 2 — the challenger's surviving predictions
must be a factor-two better overall).

**Monotonicity**: switching estimators mid-run can lower the displayed
completed fraction (the new choice may carry a larger total estimate).
The selector therefore clamps its reported total so ``fraction_done``
never decreases: the fraction floor is the maximum fraction it has ever
reported, and the reported total is capped at ``done / floor``.  Only
the *selected, reported* totals are clamped — each candidate's own
snapshots stay raw, and the observatory scores each candidate on its own
merits by replaying it alone over the logged execution
(:func:`repro.obs.replay.replay`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from repro.estimators.base import Estimator, EstimateSnapshot

#: Cumulative back-test advantage (in |log-ratio| units) a challenger
#: needs before the selector abandons the incumbent: ln 2.
SWITCH_MARGIN = 0.6931471805599453

#: Floor applied to both operands of the back-test log-ratio.
_PENALTY_FLOOR_ROWS = 1.0


class EnsembleEstimator(Estimator):
    """Score all registered candidates online; report the best one."""

    name = "ensemble"

    def __init__(self, specs, tracker, candidates: list[Estimator]) -> None:  # type: ignore[no-untyped-def]
        super().__init__(specs, tracker)
        if not candidates:
            raise ValueError("ensemble needs at least one candidate estimator")
        self._candidates = candidates
        self._selected = candidates[0]
        #: Accumulated back-test penalty per candidate name.
        self.scores: dict[str, float] = {c.name: 0.0 for c in candidates}
        #: seg id -> candidate name -> last pre-finish prediction.
        self._pending: dict[int, dict[str, float]] = {}
        self._scored_segments: set[int] = set()
        #: Monotone display floor for the reported fraction.
        self._fraction_floor = 0.0

    # ------------------------------------------------------------------

    @property
    def candidates(self) -> list[Estimator]:
        return self._candidates

    @property
    def selected_name(self) -> str:
        return self._selected.name

    @property
    def provenance(self) -> str:
        return f"{self.name}:{self._selected.name}"

    # ------------------------------------------------------------------

    def snapshot(self) -> EstimateSnapshot:
        """One selector tick: snapshot all, back-test, pick, clamp."""
        snapshots = [(c, c.snapshot()) for c in self._candidates]
        self._backtest(snapshots)
        self._select()
        chosen = next(s for c, s in snapshots if c is self._selected)
        return self._clamp_monotone(chosen)

    def on_finish(self) -> None:
        for candidate in self._candidates:
            candidate.on_finish()

    # ------------------------------------------------------------------

    def _backtest(
        self, snapshots: list[tuple[Estimator, EstimateSnapshot]]
    ) -> None:
        """Settle finished segments, then record fresh predictions."""
        _, reference = snapshots[0]
        for index, est in enumerate(reference.segments):
            seg_id = est.spec.id
            if est.status == "finished":
                if seg_id in self._scored_segments:
                    continue
                self._scored_segments.add(seg_id)
                predictions = self._pending.pop(seg_id, None)
                if predictions is None:
                    continue  # finished between ticks: nobody predicted it
                actual = max(est.est_output_rows, _PENALTY_FLOOR_ROWS)
                for candidate, _snap in snapshots:
                    predicted = predictions.get(candidate.name)
                    if predicted is None:
                        continue
                    predicted = max(predicted, _PENALTY_FLOOR_ROWS)
                    self.scores[candidate.name] += abs(
                        math.log(predicted / actual)
                    )
            else:
                self._pending[seg_id] = {
                    candidate.name: snap.segments[index].est_output_rows
                    for candidate, snap in snapshots
                }

    def _select(self) -> None:
        """Lowest accumulated penalty wins; incumbents keep ties."""
        best = min(
            self._candidates, key=lambda c: self.scores[c.name]
        )  # ties -> earliest registered (the paper baseline)
        if best is self._selected:
            return
        if self.scores[self._selected.name] - self.scores[best.name] > SWITCH_MARGIN:
            self._selected = best

    def _clamp_monotone(self, snapshot: EstimateSnapshot) -> EstimateSnapshot:
        """Cap the reported total so fraction_done never decreases."""
        done = snapshot.done_bytes
        total = snapshot.est_total_bytes
        floor = self._fraction_floor
        clamped: Optional[float] = None
        if done > 0 and floor > 0 and total > 0 and done / total < floor:
            clamped = max(done, done / floor)
        if clamped is not None:
            snapshot = replace(snapshot, est_total_bytes=clamped)
        self._fraction_floor = max(self._fraction_floor, snapshot.fraction_done)
        return snapshot
