"""Plan segmentation: pipelines, blocking boundaries, dominant inputs.

Implements Section 4.2 (segments) and the dominant-input rules of
Section 4.5:

* one input -> it is dominant;
* multiple inputs -> decided by the lowest join in the segment:
  nested loops -> the outer input, hash join -> the probe input,
  sort-merge -> *both* sorted inputs.

The builder walks the annotated physical plan bottom-up, keeping one
"open pipeline" per streaming path and closing it into a
:class:`SegmentSpec` at every blocking operator (hash build, partition
pass, sort run formation) and finally at the plan root.  Closing a
segment assigns its id (ids are dense and in execution order) and writes
the progress annotations (``pi_*`` attributes) the executor's operators
report through.

Multi-batch hash joins follow the paper's Figure 3 shape exactly: the
build and probe pipelines each close with a partition pass (producing
partition files PA/PB), and a fresh pipeline opens whose inputs are the
partitions, PB dominant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ProgressError
from repro.planner.physical import (
    DistinctNode,
    FilterNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    MergeJoinNode,
    NestLoopNode,
    PhysicalNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)

if TYPE_CHECKING:
    from repro.planner.optimizer import PlannedQuery


@dataclass
class SegmentInput:
    """One input stream of a segment, with its initial estimates."""

    index: int
    kind: str  # "base" (table scan / index scan) or "child" (segment output)
    label: str
    #: Optimizer's initial cardinality estimate (the Ne of Section 4.3).
    est_rows: float
    #: Optimizer's initial average tuple width estimate in bytes.
    est_width: float
    dominant: bool
    #: Producing segment id for kind == "child"; None for base inputs.
    child_segment: Optional[int] = None


@dataclass
class SegmentSpec:
    """Static description of one segment, fixed at plan time."""

    id: int
    label: str
    inputs: list[SegmentInput]
    #: Optimizer's initial output-cardinality estimate (E1 at p=0).
    est_output_rows: float
    est_output_width: float
    #: True for the last segment: its output goes to the user and is not
    #: counted as work (Section 4.5).
    final: bool
    #: E1 = card_factor * prod(refined input cardinalities); recorded so the
    #: refiner can "re-invoke the optimizer's cost estimation module".
    card_factor: float
    #: Estimated extra multi-stage bytes (e.g. cascade merge passes).
    est_extra_bytes: float = 0.0

    def initial_cost_bytes(self) -> float:
        """The optimizer's initial byte cost of this segment."""
        total = sum(i.est_rows * i.est_width for i in self.inputs)
        if not self.final:
            total += self.est_output_rows * self.est_output_width
        return total + self.est_extra_bytes


def build_segments(root: PhysicalNode) -> list[SegmentSpec]:
    """Segment an annotated plan and attach executor annotations."""
    builder = _Builder()
    pipeline = builder.visit(root)
    builder.close(pipeline, final=True, label="output")
    return builder.specs


def planned_segments(planned: "PlannedQuery") -> list[SegmentSpec]:
    """``build_segments(planned.root)``, built once per planned query.

    Admission, the indicator and the invariant gate all read the same
    list; nothing outside this module's builder mutates a spec.  Callers
    that edit a plan after it was first segmented (tests, mostly) call
    :func:`build_segments` themselves.
    """
    specs = planned.segment_specs
    if specs is None:
        specs = planned.segment_specs = build_segments(planned.root)
    return specs


def initial_total_cost_bytes(specs: list[SegmentSpec]) -> float:
    """The optimizer's initial estimate of the whole query's cost in bytes.

    This is the quantity the paper seeds the indicator with ("a number of
    U equal to the optimizer's estimate of the number of I/Os").
    """
    return sum(s.initial_cost_bytes() for s in specs)


def planned_cost_pages(planned: "PlannedQuery") -> float:
    """:func:`initial_total_cost_bytes` of :func:`planned_segments` in U
    (pages of the plan's config), once per planned query: admission gates
    on it and every indicator of the plan starts from it."""
    cost = planned.initial_cost_pages
    if cost is None:
        cost = planned.initial_cost_pages = (
            initial_total_cost_bytes(planned_segments(planned))
            / planned.config.page_size
        )
    return cost


# ----------------------------------------------------------------------
# internals


@dataclass
class _PendingInput:
    """An input of a not-yet-closed pipeline."""

    kind: str
    label: str
    est_rows: float
    est_width: float
    dominant: bool
    child_segment: Optional[int] = None
    #: (node, attribute) pairs to set to (segment_id, input_index) on close.
    annotations: list[tuple[PhysicalNode, str]] = field(default_factory=list)


@dataclass
class _Pipeline:
    """An open (not yet closed) pipeline during the walk."""

    inputs: list[_PendingInput]
    est_rows: float
    est_width: float
    nodes: list[PhysicalNode]
    #: Node attributes to set to the segment id on close.
    segment_annotations: list[tuple[PhysicalNode, str]] = field(default_factory=list)
    est_extra_bytes: float = 0.0


class _Builder:
    def __init__(self) -> None:
        self.specs: list[SegmentSpec] = []

    # -- pipeline lifecycle ---------------------------------------------

    def close(self, pipeline: _Pipeline, final: bool, label: str) -> SegmentSpec:
        """Seal an open pipeline into a SegmentSpec, assigning its id and
        writing the executor annotations recorded while building it.
        """
        seg_id = len(self.specs)
        inputs = []
        for idx, pending in enumerate(pipeline.inputs):
            for node, attr in pending.annotations:
                setattr(node, attr, (seg_id, idx))
            inputs.append(
                SegmentInput(
                    index=idx,
                    kind=pending.kind,
                    label=pending.label,
                    est_rows=pending.est_rows,
                    est_width=pending.est_width,
                    dominant=pending.dominant,
                    child_segment=pending.child_segment,
                )
            )
        for node, attr in pipeline.segment_annotations:
            setattr(node, attr, seg_id)
        for node in pipeline.nodes:
            node.segment_id = seg_id

        product = 1.0
        for i in inputs:
            product *= max(i.est_rows, 1e-9)
        card_factor = pipeline.est_rows / product if product > 0 else 0.0

        spec = SegmentSpec(
            id=seg_id,
            label=label,
            inputs=inputs,
            est_output_rows=pipeline.est_rows,
            est_output_width=pipeline.est_width,
            final=final,
            card_factor=card_factor,
            est_extra_bytes=pipeline.est_extra_bytes,
        )
        self.specs.append(spec)
        return spec

    # -- node dispatch ----------------------------------------------------

    def visit(self, node: PhysicalNode) -> _Pipeline:
        """Dispatch on the plan-node type; returns the open pipeline that
        streams this subtree's output upward.
        """
        if isinstance(node, (SeqScanNode, IndexScanNode)):
            return self._visit_scan(node)
        if isinstance(node, HashJoinNode):
            return self._visit_hash_join(node)
        if isinstance(node, NestLoopNode):
            return self._visit_nest_loop(node)
        if isinstance(node, SortNode):
            return self._visit_sort(node)
        if isinstance(node, MergeJoinNode):
            return self._visit_merge_join(node)
        if isinstance(node, HashAggregateNode):
            return self._visit_aggregate(node)
        if isinstance(node, ProjectNode):
            return self._visit_passthrough(node, node.child, "pi_output_segment")
        if isinstance(node, (LimitNode, FilterNode, DistinctNode)):
            return self._visit_passthrough(node, node.child, None)
        raise ProgressError(f"cannot segment plan node {type(node).__name__}")

    def _visit_scan(self, node: SeqScanNode | IndexScanNode) -> _Pipeline:
        table = node.table
        stats = table.statistics
        base_width = stats.avg_width if stats is not None else table.heap.avg_tuple_width()
        pending = _PendingInput(
            kind="base",
            label=table.name,
            est_rows=float(node.est_base_rows),
            est_width=float(base_width) if base_width else float(node.est_width),
            dominant=True,
            annotations=[(node, "pi_input_ref")],
        )
        return _Pipeline(
            inputs=[pending],
            est_rows=node.est_rows,
            est_width=node.est_width,
            nodes=[node],
        )

    def _visit_hash_join(self, node: HashJoinNode) -> _Pipeline:
        build_pipe = self.visit(node.build)
        if node.num_batches == 1:
            build_seg = self.close(
                build_pipe, final=False, label=f"hash build [{node.build.label()}]"
            )
            node.pi_build_segment = build_seg.id
            probe_pipe = self.visit(node.probe)
            probe_pipe.inputs.append(
                _PendingInput(
                    kind="child",
                    label=f"hash table (segment {build_seg.id})",
                    est_rows=build_seg.est_output_rows,
                    est_width=build_seg.est_output_width,
                    dominant=False,
                    child_segment=build_seg.id,
                    annotations=[(node, "pi_hash_input_ref")],
                )
            )
            probe_pipe.est_rows = node.est_rows
            probe_pipe.est_width = node.est_width
            probe_pipe.nodes.append(node)
            return probe_pipe

        # Multi-batch: both sides close with a partition pass; a fresh
        # pipeline joins the partitions (paper Figure 3, segment S3).
        build_seg = self.close(
            build_pipe, final=False, label=f"partition build [{node.build.label()}]"
        )
        node.pi_build_segment = build_seg.id
        probe_pipe = self.visit(node.probe)
        probe_seg = self.close(
            probe_pipe, final=False, label=f"partition probe [{node.probe.label()}]"
        )
        node.pi_probe_segment = probe_seg.id
        pa = _PendingInput(
            kind="child",
            label=f"partitions PA (segment {build_seg.id})",
            est_rows=build_seg.est_output_rows,
            est_width=build_seg.est_output_width,
            dominant=False,
            child_segment=build_seg.id,
            annotations=[(node, "pi_pa_input_ref")],
        )
        pb = _PendingInput(
            kind="child",
            label=f"partitions PB (segment {probe_seg.id})",
            est_rows=probe_seg.est_output_rows,
            est_width=probe_seg.est_output_width,
            dominant=True,
            child_segment=probe_seg.id,
            annotations=[(node, "pi_pb_input_ref")],
        )
        return _Pipeline(
            inputs=[pa, pb],
            est_rows=node.est_rows,
            est_width=node.est_width,
            nodes=[node],
        )

    def _visit_nest_loop(self, node: NestLoopNode) -> _Pipeline:
        outer_pipe = self.visit(node.outer)
        inner_pipe = self.visit(node.inner)
        # The inner is materialized within the same segment; its inputs are
        # consumed once, up front, and are never dominant (rule 2a: the
        # outer relation is the dominant input).
        for pending in inner_pipe.inputs:
            pending.dominant = False
            outer_pipe.inputs.append(pending)
        outer_pipe.nodes.extend(inner_pipe.nodes)
        outer_pipe.est_extra_bytes += inner_pipe.est_extra_bytes
        outer_pipe.est_rows = node.est_rows
        outer_pipe.est_width = node.est_width
        outer_pipe.nodes.append(node)
        return outer_pipe

    def _visit_sort(self, node: SortNode) -> _Pipeline:
        child_pipe = self.visit(node.child)
        child_pipe.est_rows = node.est_rows  # a sort reorders, never filters
        sort_seg = self.close(
            child_pipe, final=False, label=f"sort runs [{node.child.label()}]"
        )
        node.pi_sort_segment = sort_seg.id
        runs = _PendingInput(
            kind="child",
            label=f"sorted runs (segment {sort_seg.id})",
            est_rows=sort_seg.est_output_rows,
            est_width=sort_seg.est_output_width,
            dominant=True,
            child_segment=sort_seg.id,
            annotations=[(node, "pi_merge_input_ref")],
        )
        return _Pipeline(
            inputs=[runs],
            est_rows=node.est_rows,
            est_width=node.est_width,
            nodes=[node],
        )

    def _visit_aggregate(self, node: HashAggregateNode) -> _Pipeline:
        """A hash aggregate is blocking, like a sort: the accumulate phase
        ends its child's segment (the group table is the segment output);
        the finalized groups stream into the consuming segment."""
        child_pipe = self.visit(node.child)
        child_pipe.est_rows = node.est_rows  # the segment produces groups
        child_pipe.est_width = node.est_width
        agg_seg = self.close(
            child_pipe, final=False, label=f"aggregate [{node.child.label()}]"
        )
        node.pi_agg_segment = agg_seg.id
        groups = _PendingInput(
            kind="child",
            label=f"groups (segment {agg_seg.id})",
            est_rows=agg_seg.est_output_rows,
            est_width=agg_seg.est_output_width,
            dominant=True,
            child_segment=agg_seg.id,
            annotations=[(node, "pi_groups_input_ref")],
        )
        return _Pipeline(
            inputs=[groups],
            est_rows=node.est_rows,
            est_width=node.est_width,
            nodes=[node],
        )

    def _visit_merge_join(self, node: MergeJoinNode) -> _Pipeline:
        left_pipe = self.visit(node.left)
        right_pipe = self.visit(node.right)
        # Rule 2c: both sorted inputs are dominant; the refiner combines
        # their progress with p = max(qA, qB).
        for pending in left_pipe.inputs:
            pending.dominant = True
        for pending in right_pipe.inputs:
            pending.dominant = True
        inputs = left_pipe.inputs + right_pipe.inputs
        return _Pipeline(
            inputs=inputs,
            est_rows=node.est_rows,
            est_width=node.est_width,
            nodes=left_pipe.nodes + right_pipe.nodes + [node],
            est_extra_bytes=left_pipe.est_extra_bytes + right_pipe.est_extra_bytes,
        )

    def _visit_passthrough(
        self, node: PhysicalNode, child: PhysicalNode, output_attr: Optional[str]
    ) -> _Pipeline:
        pipeline = self.visit(child)
        pipeline.est_rows = node.est_rows
        pipeline.est_width = node.est_width
        pipeline.nodes.append(node)
        if output_attr is not None:
            pipeline.segment_annotations.append((node, output_attr))
        return pipeline
