"""The §4.3/§4.5 refinement core and its three blend-rule estimators.

For every segment the refinement pass combines:

* **Base-input refinement** (Section 4.3): keep the optimizer's Ne until
  the scan finishes (then the exact Np is known) or until the actual
  number of tuples read exceeds Ne (then use the running count).
* **Output-cardinality refinement** (Section 4.5): with dominant-input
  fraction ``p``, observed outputs ``y``, and the optimizer's (re-invoked)
  estimate ``E1``, blend them into the segment's estimate E.  *Which*
  blend is the one thing the concrete subclasses disagree about:

  ===============  =====================================================
  estimator        blend rule
  ===============  =====================================================
  ``paper``        ``E = p*E2 + (1-p)*E1`` with ``E2 = y/p`` — i.e.
                   ``E = y + (1-p)*E1`` (the paper's Section 4.5)
  ``dne``          ``E = y/p`` — pure driver-node extrapolation, the
                   DNE spirit of König et al.'s robust-estimation
                   portfolio (PAPERS.md); jumpy early, sharp late
  ``tgn``          ``E = max(E1, y)`` — optimizer-anchored: never
                   extrapolate from observed outputs (TGN spirit);
                   smooth, but blind to wrong selectivities
  ===============  =====================================================

* **Upward propagation**: a future segment's E1 is recomputed from its
  inputs' *current* refined estimates via the multiplicative factor the
  optimizer recorded at plan time (its cost-estimation module,
  re-invoked).  The :meth:`RefinementEstimator._correct_e1` hook lets
  :class:`~repro.estimators.history.HistoryEstimator` scale this E1 by a
  learned per-plan-signature correction factor.
* **Exact accounting** for finished segments.

Everything is recomputed from the tracker's counters on demand — the
estimator itself is stateless between snapshots, which keeps it trivially
consistent with whatever the executor has done so far.  The property
suite pins the ``paper`` subclass's reports float-for-float across the
tier-1 grid on both engines.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.segments import SegmentSpec
from repro.estimators.base import (
    Estimator,
    EstimateSnapshot,
    InputEstimate,
    SegmentEstimate,
)
from repro.executor.work import SegmentCounters


class RefinementEstimator(Estimator):
    """Shared refinement machinery; subclasses choose the blend rule."""

    def snapshot(self) -> EstimateSnapshot:
        """Run one refinement pass (Section 4.5's refining procedure)."""
        estimates: list[SegmentEstimate] = []
        # Producers close before consumers, so ids are topologically ordered
        # and each child's estimate exists before its consumers need it.
        for spec in self._specs:
            estimates.append(self._estimate_segment(spec, estimates))
        total = math.fsum(e.est_cost_bytes for e in estimates)
        return EstimateSnapshot(
            segments=estimates,
            est_total_bytes=total,
            done_bytes=self._tracker.total_done_bytes,
            current_segment=self._tracker.current_segment(),
        )

    def final_snapshot(self) -> EstimateSnapshot:
        """Once every segment finished, each one's estimate is exact and
        costs what it did: :meth:`snapshot`'s totals without its
        per-segment objects.  The costs are whole numbers of bytes, so
        ``sum`` here and ``fsum`` there both add them exactly."""
        counters = self._tracker.segments
        if not all(c.finished for c in counters):
            return self.snapshot()
        return EstimateSnapshot(
            segments=[],
            est_total_bytes=sum(c.done_bytes for c in counters),  # noqa: REPRO112 - whole-number bytes, exact
            done_bytes=self._tracker.total_done_bytes,
            current_segment=None,
        )

    # ------------------------------------------------------------------
    # the two strategy hooks

    def _blend(self, y: float, p: float, e1: float) -> float:
        """Blend observed outputs ``y`` at progress ``p`` with E1."""
        raise NotImplementedError

    def _correct_e1(self, spec: SegmentSpec, e1: float) -> float:
        """Optionally rescale the re-invoked optimizer estimate."""
        return e1

    # ------------------------------------------------------------------

    def _estimate_segment(
        self, spec: SegmentSpec, done: list[SegmentEstimate]
    ) -> SegmentEstimate:
        counters = self._tracker.segments[spec.id]
        inputs = [
            self._estimate_input(spec, i, counters, done)
            for i in range(len(spec.inputs))
        ]
        done_bytes = counters.done_bytes

        if counters.finished:
            width = counters.avg_output_width()
            if width is None:
                width = spec.est_output_width
            exact = float(counters.output_rows)
            return SegmentEstimate(
                spec=spec,
                status="finished",
                inputs=inputs,
                p=1.0,
                est_output_rows=exact,
                est_output_width=width,
                est_cost_bytes=done_bytes,
                done_bytes=done_bytes,
                e1=exact,
                e2=exact,
                dominant_input=None,
            )

        # E1: the optimizer's estimate, re-invoked with refined input
        # cardinalities (upward propagation of Section 4.5).
        e1 = spec.card_factor
        for inp in inputs:
            e1 *= max(inp.est_rows, 1e-9)
        e1 = self._correct_e1(spec, e1)

        p = 0.0
        dominant_input: Optional[int] = None
        if counters.started:
            # Two dominant inputs (sort-merge): the faster-consumed side
            # decides p (Section 4.5, citing the LEO-style rule); the
            # first of equals, as ``max`` picks.
            deciding: Optional[InputEstimate] = None
            for inp in inputs:
                if inp.dominant:
                    progress = inp.progress
                    if deciding is None or progress > p:
                        deciding, p = inp, progress
            if deciding is not None and p > 0:
                dominant_input = deciding.index

        y = float(counters.output_rows)
        estimate = self._blend(y, p, e1)
        width = counters.avg_output_width()
        if width is None:
            width = spec.est_output_width

        cost = math.fsum(inp.est_rows * inp.est_width for inp in inputs)
        cost += spec.est_extra_bytes
        if not spec.final:
            cost += estimate * width
        # A running segment can never cost less than what it already did.
        cost = max(cost, done_bytes)

        return SegmentEstimate(
            spec=spec,
            status="running" if counters.started else "pending",
            inputs=inputs,
            p=p,
            est_output_rows=estimate,
            est_output_width=width,
            est_cost_bytes=cost,
            done_bytes=done_bytes,
            e1=e1,
            e2=(y / p) if p > 0 else None,
            dominant_input=dominant_input,
        )

    def _estimate_input(
        self,
        spec: SegmentSpec,
        index: int,
        counters: SegmentCounters,
        done: list[SegmentEstimate],
    ) -> InputEstimate:
        meta = spec.inputs[index]
        rows_read = counters.input_rows[index]
        bytes_read = counters.input_bytes[index]

        if meta.kind == "base":
            # Section 4.3: Ne until the scan finishes or overruns it.
            if counters.finished:
                est_rows = float(rows_read)
                source = "exact"
            elif float(rows_read) > float(meta.est_rows):
                est_rows = float(rows_read)
                source = "overrun"
            else:
                est_rows = float(meta.est_rows)
                source = "ne"
            if rows_read > 0:
                est_width = bytes_read / rows_read
            else:
                est_width = meta.est_width
        else:
            assert meta.child_segment is not None
            child = done[meta.child_segment]
            source = "child_final" if child.status == "finished" else "child"
            # Propagated (possibly still-moving) child estimate.
            est_rows = child.est_output_rows
            est_width = child.est_output_width
            est_rows = max(est_rows, float(rows_read))
            if rows_read > 0 and child.status == "finished":
                # Trust observed input width once we are actually reading.
                est_width = bytes_read / rows_read if rows_read else est_width

        return InputEstimate(
            index=index,
            label=meta.label,
            rows_read=rows_read,
            bytes_read=bytes_read,
            est_rows=est_rows,
            est_width=est_width,
            dominant=meta.dominant,
            source=source,
        )


class PaperEstimator(RefinementEstimator):
    """The paper's Section 4.5 blend: ``E = p*E2 + (1-p)*E1``."""

    name = "paper"

    def _blend(self, y: float, p: float, e1: float) -> float:
        return y + (1.0 - p) * e1  # == p*E2 + (1-p)*E1 with E2 = y/p


class DriverNodeEstimator(RefinementEstimator):
    """Pure driver-node extrapolation (DNE): ``E = y/p``, no smoothing."""

    name = "dne"

    def _blend(self, y: float, p: float, e1: float) -> float:
        return y / p if p > 0 else e1


class TotalGetNextEstimator(RefinementEstimator):
    """Optimizer-anchored (TGN): never extrapolate from observed outputs."""

    name = "tgn"

    def _blend(self, y: float, p: float, e1: float) -> float:
        return max(e1, y)
