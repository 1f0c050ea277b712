"""Run-time work accounting: the U counters of the progress indicator.

The paper measures work in bytes processed at segment boundaries
(Section 4.1/4.5): a byte is counted when a segment reads it as input,
when a segment writes it as output (unless that output is the final query
result), and once more per extra multi-stage pass.  :class:`WorkTracker`
holds those counters per segment; the global total the speed monitor
consumes is their sum, taken when it is read.

Every byte count is an integer (row widths, ``Page.bytes_used``, the
per-row :func:`page_share` of a page), held in a float only so traces
print as before: sums are exact in any order, so the engines agree on U
by arithmetic.  The row engine *pushes* each row into the counters; a
fused program counts in its own variables and installs
:attr:`WorkTracker.sync`, which readers call first to fold those in.

This module lives in the executor package (not in :mod:`repro.core`) so
operators can report without importing the estimator; the estimator reads
these counters when it refines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.bus import TraceBus
    from repro.planner.physical import PhysicalNode


def page_share(k: int, nbytes: int, n: int) -> int:
    """Bytes of an ``n``-row, ``nbytes``-byte page credited to its first
    ``k`` rows by per-tuple scans: row k's own share is the difference of
    two of these, so a page's shares are integers that sum to ``nbytes``."""
    return k * nbytes // n


class SegmentCounters:
    """Mutable run-time counters for one segment."""

    __slots__ = (
        "segment_id",
        "input_rows",
        "input_bytes",
        "output_rows",
        "output_bytes",
        "extra_bytes",
        "final",
        "started",
        "finished",
        "started_at",
        "finished_at",
    )

    def __init__(self, segment_id: int, num_inputs: int, final: bool = False):
        self.segment_id = segment_id
        self.input_rows = [0] * num_inputs
        self.input_bytes = [0.0] * num_inputs
        self.output_rows = 0
        self.output_bytes = 0.0
        self.extra_bytes = 0.0
        #: The final segment's output is the query result, which is not work.
        self.final = final
        self.started = False
        self.finished = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    @property
    def done_bytes(self) -> float:
        """Bytes of this segment counted toward the query's done work."""
        done = sum(self.input_bytes) + self.extra_bytes
        return done if self.final else done + self.output_bytes

    def avg_output_width(self) -> Optional[float]:
        """Observed mean output tuple width, or None before any output."""
        if self.output_rows <= 0:
            return None
        return self.output_bytes / self.output_rows

    def avg_input_width(self, input_index: int) -> Optional[float]:
        """Observed mean width of one input's tuples, or None before data."""
        if self.input_rows[input_index] <= 0:
            return None
        return self.input_bytes[input_index] / self.input_rows[input_index]


class WorkTracker:
    """Per-query progress counters, shared by executor and estimator.

    ``num_inputs`` lists the input count of each segment, indexed by
    segment id (segment ids are dense, assigned by the segment builder).
    ``count_final_output`` is False per the paper: bytes of the final
    result shown to the user are not work.
    """

    def __init__(self, num_inputs: list[int], final_segment: int, clock=None):
        self.segments = [
            SegmentCounters(i, n, final=i == final_segment)
            for i, n in enumerate(num_inputs)
        ]
        self._clock = clock
        #: Installed by a running fused program: folds the counts it keeps
        #: in its own variables into ``segments``; whatever reads counters
        #: mid-query calls it first.  None: they are already current.
        self.sync: Optional[Callable[[], None]] = None
        #: Optional hook invoked as segments finish (indicator refresh).
        self.on_segment_finished: Optional[Callable[[int], None]] = None
        #: Optional TraceBus for segment-lifecycle events.  None (default)
        #: is the zero-cost disabled path: lifecycle methods test identity
        #: only, and the per-tuple hot paths above are untouched entirely.
        self.trace: Optional["TraceBus"] = None

    # ------------------------------------------------------------------
    # hot-path reporting (called per page / per tuple by operators)

    def input_rows(
        self, segment_id: int, input_index: int, rows: int, nbytes: float
    ) -> None:
        """Record ``rows`` tuples (``nbytes`` bytes) read by a segment input."""
        seg = self.segments[segment_id]
        if not seg.started:
            self._start(seg)
        seg.input_rows[input_index] += rows
        seg.input_bytes[input_index] += nbytes

    def output_rows(self, segment_id: int, rows: int, nbytes: float) -> None:
        """Record tuples produced at a segment's output."""
        seg = self.segments[segment_id]
        if not seg.started:
            self._start(seg)
        seg.output_rows += rows
        seg.output_bytes += nbytes

    def extra_pass(self, segment_id: int, nbytes: float) -> None:
        """Record a multi-stage extra pass over ``nbytes`` (Section 4.5)."""
        seg = self.segments[segment_id]
        seg.extra_bytes += nbytes
        if self.trace is not None:
            from repro.obs.events import ExtraPass

            self.trace.emit(
                ExtraPass(t=self._now(), segment_id=segment_id, nbytes=nbytes)
            )

    # ------------------------------------------------------------------
    # lifecycle

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def _start(self, seg: SegmentCounters) -> None:
        seg.started = True
        if self._clock is not None:
            seg.started_at = self._clock.now
        if self.trace is not None:
            from repro.obs.events import SegmentStarted

            self.trace.emit(
                SegmentStarted(t=self._now(), segment_id=seg.segment_id)
            )

    def segment_finished(self, segment_id: int) -> None:
        """Mark a segment complete (exact counts freeze; hook fires once)."""
        seg = self.segments[segment_id]
        if seg.finished:
            return
        if self.sync is not None:
            self.sync()
        if not seg.started:
            self._start(seg)
        seg.finished = True
        if self._clock is not None:
            seg.finished_at = self._clock.now
        if self.trace is not None:
            from repro.obs.events import SegmentFinished

            self.trace.emit(
                SegmentFinished(
                    t=self._now(),
                    segment_id=segment_id,
                    done_bytes=seg.done_bytes,
                    output_rows=seg.output_rows,
                )
            )
        if self.on_segment_finished is not None:
            self.on_segment_finished(segment_id)

    def finish_all(self) -> None:
        """Mark every segment finished (query completed)."""
        for seg in self.segments:
            if not seg.finished:
                self.segment_finished(seg.segment_id)

    # ------------------------------------------------------------------
    # queries

    def current_segment(self) -> Optional[int]:
        """The running segment the paper calls "the current segment".

        With a pipelined plan several segments can be technically started;
        the *current* one is the deepest unfinished started segment (the
        one actually consuming its dominant input).
        """
        current = None
        for seg in self.segments:
            if seg.started and not seg.finished:
                current = seg.segment_id
                break
        return current

    @property
    def total_done_bytes(self) -> float:
        """Work done so far, in bytes, as of the last :attr:`sync`: every
        segment's ``done_bytes`` in one loop (integer-valued: order-free)."""
        return _done_bytes(self.segments)

    def done_pages(self, page_size: int) -> float:
        """Total work done so far, in U (pages), synced first."""
        if self.sync is not None:
            self.sync()
        return _done_bytes(self.segments) / page_size


def _done_bytes(segments: list[SegmentCounters]) -> float:
    total = 0.0
    for seg in segments:
        for nbytes in seg.input_bytes:
            total += nbytes
        total += seg.extra_bytes
        if not seg.final:
            total += seg.output_bytes
    return total


def check_tracker_alignment(root: "PhysicalNode", tracker: WorkTracker) -> None:
    """Pre-execution guard: the tracker must cover every segment and input
    slot the plan's progress annotations reference.

    Operators index ``tracker.segments`` by the ``segment_id`` /
    ``pi_*`` annotations the segment builder wrote into the plan; running
    a plan against a tracker built for a *different* plan (stale indicator,
    re-prepared query) would corrupt counters or crash mid-query.  The
    full structural invariants are checked by :mod:`repro.analysis`; this
    cheap, dependency-free check only pins the plan to its tracker.
    """
    nseg = len(tracker.segments)
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        for attr, value in vars(node).items():
            if attr == "segment_id" or (
                attr.startswith("pi_") and attr.endswith("_segment")
            ):
                if value is None:
                    continue
                if not (isinstance(value, int) and 0 <= value < nseg):
                    raise ExecutionError(
                        f"{type(node).__name__}.{attr} = {value!r} does not "
                        f"match the attached tracker ({nseg} segments)"
                    )
            elif attr.startswith("pi_") and attr.endswith("_ref"):
                if value is None:
                    continue
                if not (
                    isinstance(value, tuple)
                    and len(value) == 2
                    and isinstance(value[0], int)
                    and isinstance(value[1], int)
                    and 0 <= value[0] < nseg
                    and 0 <= value[1] < len(tracker.segments[value[0]].input_rows)
                ):
                    raise ExecutionError(
                        f"{type(node).__name__}.{attr} = {value!r} does not "
                        f"match the attached tracker ({nseg} segments)"
                    )
