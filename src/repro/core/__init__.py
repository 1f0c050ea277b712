"""The progress indicator — the paper's contribution.

Pipeline:

1. :mod:`repro.core.segments` splits an annotated physical plan into
   pipelined segments at blocking-operator boundaries and picks each
   segment's dominant input(s) (Sections 4.2 and 4.5).
2. The executor reports tuple/byte counts into a
   :class:`~repro.executor.work.WorkTracker` as the query runs.
3. A pluggable :class:`~repro.estimators.Estimator`
   (:mod:`repro.estimators`; the default "paper" strategy re-estimates
   segment output cardinalities with ``E = p*E2 + (1-p)*E1``) propagates
   refined estimates upward (Sections 4.3 and 4.5).  Alternatives — DNE/
   TGN blends, history-learned corrections, the online ensemble selector
   — are chosen per query or via ``ProgressConfig.estimator``.
4. :mod:`repro.core.speed` converts U to time from observed execution
   speed over the last T seconds (Section 4.6).
5. :class:`~repro.core.indicator.ProgressIndicator` samples everything on
   a virtual-clock ticker and emits :class:`~repro.core.report.ProgressReport`
   rows — the paper's Figure 2 display fields.
"""

from repro.core.baseline import OptimizerBaseline, StepBaseline
from repro.core.breakdown import (
    SegmentProgress,
    attribute_error,
    render_breakdown,
    segment_progress,
    time_breakdown,
)
from repro.core.history import ProgressLog
from repro.core.indicator import ProgressIndicator
from repro.core.report import ProgressReport
from repro.estimators import (
    Estimator,
    EstimateSnapshot,
    SegmentEstimate,
    make_estimator,
)
from repro.core.segments import SegmentInput, SegmentSpec, build_segments
from repro.core.speed import (
    DecayingSpeedEstimator,
    GlobalSpeedEstimator,
    WindowSpeedEstimator,
    make_speed_estimator,
)
from repro.core.triggers import ProgressTrigger, slow_progress_condition

__all__ = [
    "SegmentProgress",
    "segment_progress",
    "render_breakdown",
    "time_breakdown",
    "attribute_error",
    "build_segments",
    "SegmentSpec",
    "SegmentInput",
    "Estimator",
    "EstimateSnapshot",
    "SegmentEstimate",
    "make_estimator",
    "ProgressIndicator",
    "ProgressReport",
    "ProgressLog",
    "ProgressTrigger",
    "slow_progress_condition",
    "WindowSpeedEstimator",
    "DecayingSpeedEstimator",
    "GlobalSpeedEstimator",
    "make_speed_estimator",
    "OptimizerBaseline",
    "StepBaseline",
]
