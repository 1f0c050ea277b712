"""The fused batch-at-a-time engine: one compiled loop nest per query.

The volcano engine (the ``"row"`` engine) moves one tuple per Python-level
``next()``/``yield`` hop through a chain of generator operators.  That hop
is the dominant *real-time* cost of every query — while the *virtual-time*
cost model (clock charges, tracker bytes, PULSE scheduling points) is
completely independent of how tuples are transported.  This module
exploits that: it compiles a physical plan into a single Python generator
whose loop nest runs every pipelined stage's per-row work in one frame,
and hands rows to the driver in :class:`~repro.executor.batch.Batch`
containers instead of one at a time.

Bit-identity contract
---------------------
The fused program must be observationally identical to the volcano
engine — same result rows in the same order, the same ProgressLog, the
same final clock and tracker state.  Because the virtual clock fires
ticker callbacks (progress reports, speed samples) *inside*
``clock.advance``, identity requires preserving the exact ordered
sequence of charges and the tracker values *a reader sees* at each one.
The compiler therefore follows four rules:

* every per-row ``clock.advance`` is emitted at the same point in the
  row stream as the volcano operator performs it — never merged, split,
  or reordered (virtual time is a float; float addition is not
  associative);
* work accounting is integer arithmetic, so only its value at each
  observation point matters: row loops count in bare local names at the
  volcano engine's stream positions, and the nested ``_sync`` installed
  as ``tracker.sync`` folds those counts into the segments and their
  running total whenever the indicator, the scheduler or a segment end
  reads, and once more at ``close()``, which unhooks it — no row loop
  writes to the tracker, and none counts the query result (no bytes; its
  rows are the flushed batches' plus ``nout``).  A waiting query is parked;
* every storage call (buffer-pool page get/pin/unpin, disk read, temp
  write) keeps its exact order, because fault injection draws one RNG
  value per charged I/O;
* only *silent* computation (predicate evaluation, tuple construction,
  width arithmetic, partition routing) is restructured into straight-line
  code: comparisons, arithmetic, scalar functions and LIKE are inline
  source (a NULL first operand skips evaluating the second, as ``and``
  already does), a row is built once, where a consumer takes it whole —
  slot readers read the row it was copied from — and a row loop calls a
  ``compile_expr`` closure only for an IN-subquery or an unsafe literal.

``PULSE`` placement is likewise preserved: the generated code yields
:data:`~repro.executor.base.PULSE` at exactly the volcano engine's
boundaries, flushing any pending output batch first (flushing is
clock-silent, so batch size never affects results — it only trades
Python-level hops against latency of row delivery to the driver).

Merge join is the one operator the compiler does not fuse: it is a
pull-based two-cursor streamer whose volcano implementation is already
dominated by its children; the compiler embeds the volcano operator as a
row source and fuses everything above it.

One program per plan shape
--------------------------
The text is a pure function of what the emitters read: plan shape, the
frozen config, monitored or plain.  :func:`_plan_key` computes exactly
that, as values, in one walk, and :class:`FusedQuery` keeps one bounded
cache of programs under it; a shape met before runs no emitter.  What
differs between two queries of one shape (clock, tracker, heap handles,
literals, index bounds, sort state) never reaches an emitter: a call site
states where the query being bound finds its own (``local(bind, hint)``),
the ordered bindings are stored with the code object, and they are the
only way ``env`` is filled, on a miss as on a hit.  ``REPRO_VERIFY=strict``
regenerates the text on every hit and raises if the key hid a difference.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
from collections import OrderedDict
from operator import attrgetter
from types import CodeType
from typing import Callable, Iterator, List, NamedTuple, Optional

from repro.analysis.gate import resolve_verify_mode
from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.executor.base import PULSE, ExecContext
from repro.executor.batch import Batch
from repro.executor.hash_join import _spill_schema, _stable_hash
from repro.executor.rowops import concat_layout, layout_of, row_width_fn
from repro.executor.scans import _projector, _scan_layout
from repro.executor.sort import _MERGE_PULSE_ROWS, SortRuns
from repro.executor.work import check_tracker_alignment
from repro.expr.bound import (
    AggregateExpr,
    ArithmeticExpr,
    ColumnExpr,
    ComparisonExpr,
    FunctionExpr,
    LikeExpr,
    LiteralExpr,
    LogicalExpr,
    NegativeExpr,
    NotExpr,
)
from repro.expr.compiler import compile_expr, compile_predicate, like_matcher
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
from repro.sim.load import CPU, IO
from repro.storage.heap import HeapFile
from repro.storage.schema import TUPLE_HEADER_BYTES
from repro.storage.types import IntegerType, StringType

#: Comparison / arithmetic operator spellings for fused expression source.
_CMP_SRC = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_SRC = {"+": "+", "-": "-", "*": "*", "/": "/"}
#: Literal types fused expressions bind as hoisted locals (NULL stays
#: inline); anything else keeps its ``compile_expr`` closure.
_SAFE_LITERALS = (int, float, str, bool)


#: Indentation by block depth (``_Compiler.line`` runs ~200x per program).
_PADS = ["    " * depth for depth in range(64)]


def _nonnull_literal(expr) -> bool:
    """True when ``expr`` is a literal that can never evaluate to NULL."""
    return isinstance(expr, LiteralExpr) and expr.value is not None


class _StopPipeline(Exception):
    """Raised by a fused LIMIT stage to unwind its source loops.

    The volcano LimitOp simply stops pulling its child; in fused code the
    source loops are *below* the limit stage in the same frame, so the
    stage raises instead.  ``try/finally`` blocks on the unwind path
    release pins exactly as generator finalization does for the volcano
    engine (both are clock-silent).
    """


def _lit(value) -> str:
    """A source literal that round-trips ``value`` exactly (repr)."""
    return repr(value)


def _tuple_display(parts: List[str]) -> str:
    if not parts:
        return "()"
    if len(parts) == 1:
        return f"({parts[0]},)"
    return "(" + ", ".join(parts) + ")"


def _make_partitions(
    ctx: ExecContext, temps: List[HeapFile], columns, nbatches: int, name: str
) -> List[HeapFile]:
    """Create one temp partition file per batch (registered for cleanup)."""
    schema = _spill_schema(columns)
    parts = [
        HeapFile(f"{name}_p{b}", schema, ctx.disk, ctx.config.page_size, temp=True)
        for b in range(nbatches)
    ]
    temps.extend(parts)
    return parts


class _Compiler:
    """Produce/consume compiler: physical plan -> one generator's source.

    ``_node(node, consume)`` emits the code that produces ``node``'s rows,
    invoking the ``consume`` callback to emit the per-row code of the
    parent stage at every production site.  Sources own the loops;
    pipeline breakers (sort, hash build, aggregation) emit a sink for
    their child followed by a new production phase for their output.
    """

    def __init__(self, config: SystemConfig, monitored: bool, nodes, exprs):
        self.config = config
        self.cost = config.cost
        self.monitored = monitored
        self.batch_rows = max(1, config.progress.batch_rows)
        self.work_mem_bytes = config.work_mem_pages * config.page_size
        #: ``(env name, query -> value)`` in preamble order: how a query
        #: binds its own objects to this program (see :meth:`local`).
        self.bindings: List[tuple[str, Callable[["FusedQuery"], object]]] = []
        #: Where the key walk met each node / expression of the exemplar.
        self._node_at = {id(n): i for i, n in enumerate(nodes)}
        self._expr_at = {id(e): k for k, e in enumerate(exprs)}
        self.pre: List[str] = []
        self.body: List[str] = []
        #: (position in ``body``, lines to splice in there) — see hole().
        self._holes: List[tuple[int, List[str]]] = []
        self.depth = 1
        self._n = 0
        self._seg_names: dict[int, str] = {}
        #: The program's tracker state: names shared with ``_sync``; the
        #: body's reads, the byte counts it adds to the total, its folds.
        self._cells: List[str] = []
        self._pre: List[str] = []
        self._total: List[str] = []
        self._sync: List[str] = []
        #: Row variable -> per-slot ``(source row, slot)`` for tuples built
        #: from slots of other rows (None where a slot is computed).
        self._origin: dict[str, list] = {}
        #: Rows no consumer has taken whole yet -> emit them where defined.
        self._unbuilt: dict[str, Callable[[], None]] = {}
        #: Segments the enclosing page iteration has already started.
        self._started: set[int] = set()
        #: Source row -> ``slots -> name`` binding those slots' string-length
        #: sum once, where the source row is bound (see _emit_width).
        self._hoist: dict[str, Callable[[List[int]], str]] = {}

    # ------------------------------------------------------------------
    # emission helpers

    def fresh(self, hint: str) -> str:
        self._n += 1
        return f"{hint}{self._n}"

    def local(self, bind: Callable[["FusedQuery"], object], hint: str) -> str:
        """A function-local name (hoisted in the preamble) for a per-query
        object.  An emitter never holds one: it says where a query being
        bound finds its own — ``bind(query)`` — and only that is cached."""
        name = self.fresh(hint)
        self.bindings.append((f"_g_{name}", bind))
        self.pre.append(f"{name} = _g_{name}")
        return name

    def node_local(self, node: PhysicalNode, get: Callable, hint: str) -> str:
        """``get`` of the bound query's node at ``node``'s place in the walk."""
        i = self._node_at[id(node)]
        return self.local(lambda q: get(q.nodes[i]), hint)

    def expr_local(self, expr, get: Callable, hint: str) -> str:
        """``get`` of the bound query's expression at ``expr``'s place."""
        k = self._expr_at[id(expr)]
        return self.local(lambda q: get(q.exprs[k]), hint)

    def line(self, text: str) -> None:
        self.body.append(_PADS[self.depth] + text)

    def hole(self) -> Callable[[str], None]:
        """Reserve this spot in the body; the result emits a line there later."""
        lines: List[str] = []
        pad = _PADS[self.depth]
        self._holes.append((len(self.body), lines))
        return lambda text: lines.append(pad + text)

    def cell(self, hint: str) -> str:
        """A variable the program shares with its ``_sync`` (starts at 0)."""
        name = self.fresh(hint)
        self._cells.append(name)
        return name

    def block(self, header: str) -> "_Block":
        self.line(header)
        return _Block(self)

    # cached hot bindings ------------------------------------------------

    @functools.cached_property
    def _adv(self) -> str:
        return self.local(lambda q: q.ctx.clock.advance, "adv")

    @functools.cached_property
    def _clk(self) -> str:
        return self.local(lambda q: q.ctx.clock, "clk")

    @functools.cached_property
    def _cch(self) -> str:
        """The clock's ``cost_charged`` dict (mutated in place, never rebound)."""
        return self.local(lambda q: q.ctx.clock.cost_charged, "cch")

    @functools.cached_property
    def _slow(self) -> str:
        return self.local(lambda q: q.ctx.clock._advance_slow, "slow")

    @functools.cached_property
    def _tr_start(self) -> str:
        return self.local(lambda q: q.tracker._start, "trst")

    @functools.cached_property
    def _tr_segfin(self) -> str:
        return self.local(lambda q: q.tracker.segment_finished, "segfin")

    @functools.cached_property
    def _tr_input(self) -> str:
        """The bound ``input_rows`` method, for cold per-page call sites."""
        return self.local(lambda q: q.tracker.input_rows, "trin")

    def _seg(self, seg_id: int) -> str:
        """One segment's counters; ``<name>st``: the program saw it started."""
        name = self._seg_names.get(seg_id)
        if name is None:
            name = self._seg_names[seg_id] = self.local(
                lambda q: q.tracker.segments[seg_id], f"seg{seg_id}_"
            )
            self.pre.append(f"{name}st = False")
        return name

    # inlined clock charge (must mirror VirtualClock.advance exactly) ----

    def _emit_advance(self, cost, res: str, maybe_zero: bool = True) -> None:
        """Inline ``clock.advance(cost, res)``'s fast path.

        ``cost`` is either a float (compile-time constant) or a source
        expression.  The emitted sequence is ``VirtualClock.advance``
        minus the function call: same ``cost_charged`` update, same
        fast-path float arithmetic, and the bound ``_advance_slow`` for
        the event-crossing path (which fires tickers exactly as the real
        method does).  ``advance(0)`` is a no-op, so zero constants emit
        nothing and runtime expressions guard with ``if cost:`` unless
        the caller proves them nonzero.
        """
        if isinstance(cost, (int, float)):
            if cost == 0:
                return
            if cost < 0:
                # Invalid config: keep the real method's ValueError.
                self.line(f"{self._adv}({_lit(cost)}, {res})")
                return
            c = _lit(cost)
            guard = False
        elif cost.isidentifier():
            c = cost
            guard = maybe_zero
        else:
            c = self.fresh("c")
            self.line(f"{c} = {cost}")
            guard = maybe_zero
        clk = self._clk
        cch = self._cch
        slow = self._slow
        rloc = "_rcpu" if res == "_CPU" else "_rio"

        def emit_body() -> None:  # the commonest block: appended in one go
            pad, deeper = _PADS[self.depth], _PADS[self.depth + 1]
            self.body += (
                f"{pad}{cch}[{rloc}] += {c}",
                f"{pad}_end = {clk}.now + {c} * {clk}._factors[{rloc}]",
                f"{pad}if _end < {clk}._next_event:",
                f"{deeper}{clk}.now = _end",
                f"{pad}else:",
                f"{deeper}{slow}({c}, {rloc})",
            )

        if guard:
            with self.block(f"if {c}:"):
                emit_body()
        else:
            emit_body()

    # tracker counting: the row loop counts in bare names, ``_sync`` adds
    # them to the SegmentCounters and their total and zeroes them, skipping
    # a count still at zero.  Every count is an integer, so the fold
    # commutes with the cold call sites that push straight into the
    # tracker (per spilled page, per hash table).

    def _emit_start(self, seg_id: int) -> None:
        """``tracker._start`` at the segment's first row, as the row engine."""
        if seg_id in self._started:
            return
        seg = self._seg(seg_id)
        with self.block(f"if not {seg}st:"):
            self.line(f"{seg}st = True")
            with self.block(f"if not {seg}.started:"):
                self.line(f"{self._tr_start}({seg})")

    def _emit_count(self, seg_id: int, idx: Optional[int],
                    width: "int | str | None") -> None:
        """Count one row of ``width`` bytes (an int, source for one, or None:
        rows only) into input ``idx`` of a segment, or its output when None."""
        self._emit_start(seg_id)
        rows = self.cell("n")
        self.line(f"{rows} += 1")
        seg = self._seg(seg_id)
        what, sub = ("output", "") if idx is None else ("input", f"[{idx}]")
        fold = [f"    {seg}.{what}_rows{sub} += {rows}"]
        zero = f"{rows} = 0"
        if width is not None:
            if isinstance(width, int):
                nbytes = f"{rows} * {width}"
            else:
                nbytes = self.cell("b")
                self.line(f"{nbytes} += {width}")
                zero = f"{nbytes} = {zero}"
            fold.append(f"    {seg}.{what}_bytes{sub} += {nbytes}")
            self._total.append(nbytes)
        self._sync += [f"if {rows}:", *fold, f"    {zero}"]

    # batch / pulse plumbing ---------------------------------------------

    def _flush(self) -> None:
        """Hand the pending batch to the driver (its rows leave ``nout``)."""
        self.line("yield _B(out)")
        self.line("out = []")
        self.line("out_append = out.append")
        if self._fout is not None:
            self.line(f"{self._fout} += nout")
        self.line("nout = 0")

    def _emit_pulse(self) -> None:
        """Yield PULSE, flushing any pending output batch first."""
        with self.block("if nout:"):
            self._flush()
        self.line("yield PULSE")

    def _driver(self, rowvar: str) -> None:
        self.line(f"out_append({self._whole(rowvar)})")
        self.line("nout += 1")
        with self.block(f"if nout >= {self.batch_rows}:"):
            self._flush()

    # width arithmetic ----------------------------------------------------

    @staticmethod
    def _width_parts(types) -> tuple[int, List[int]]:
        """Split a row shape into (fixed width, variable string slots).

        A string is one byte plus its length (NULL: the one byte), so the
        fixed part already holds a byte per string slot.
        """
        fixed = TUPLE_HEADER_BYTES
        var_slots: List[int] = []
        for i, t in enumerate(types):
            if isinstance(t, StringType):
                var_slots.append(i)
                fixed += 1
            else:
                fixed += t.width(None)
        return fixed, var_slots

    @staticmethod
    def _lens(rowvar: str, slots: List[int]) -> str:
        """NULL-safe sum of the string lengths in ``slots`` of ``rowvar``."""
        return " + ".join(f"len({rowvar}[{i}] or '')" for i in slots)

    def _src(self, rowvar: str, slot: int) -> tuple[str, int]:
        """The row ``rowvar[slot]`` was copied from (itself: scanned, computed)."""
        origin = self._origin.get(rowvar)
        return (origin and origin[slot]) or (rowvar, slot)

    def _slot(self, rowvar: str, slot: int) -> str:
        """``rowvar[slot]``, read from the row it was copied from."""
        return "%s[%d]" % self._src(rowvar, slot)

    def _tuple(self, parts: list) -> str:
        """Name a row of ``(row, slot)`` picks and computed-value sources.  A
        pick of a pick reads the source row.  The row is built — here — only
        if a consumer takes it whole (_whole); with a computed slot at once,
        so what may raise runs exactly when the row engine runs it."""
        o = self.fresh("o")
        picks = [p if isinstance(p, str) else self._src(*p) for p in parts]
        text = f"{o} = " + _tuple_display(
            [p if isinstance(p, str) else "%s[%d]" % p for p in picks]
        )
        self._origin[o] = origin = [None if isinstance(p, str) else p for p in picks]
        if None in origin:
            self.line(text)
        else:
            at = self.hole()
            self._unbuilt[o] = lambda: at(text)
        return o

    def _whole(self, rowvar: str) -> str:
        """``rowvar`` for a consumer that takes the row as one object."""
        build = self._unbuilt.pop(rowvar, None)
        if build is not None:
            build()
        return rowvar

    @contextlib.contextmanager
    def _hoisting(self, rowvar: str) -> Iterator[None]:
        """While the loop about to open is emitted, widths take the string
        lengths of the rows ``rowvar`` is made of from names bound here: once
        per row, not per pair (a row hoisted further out stays out there)."""
        at = self.hole()

        def bind(src: str, slots: List[int]) -> str:
            name = self.fresh("pw")
            at(f"{name} = {self._lens(src, slots)}")
            return name

        made_of = [(p or (rowvar,))[0] for p in self._origin.get(rowvar) or [None]]
        outer = self._hoist
        self._hoist = {**{s: functools.partial(bind, s) for s in made_of}, **outer}
        yield
        self._hoist = outer

    def _emit_width(
        self, rowvar: str, fixed: int, var_slots: List[int], named: bool = False
    ) -> "int | str":
        """The exact width of ``rowvar``: ``fixed`` itself when the shape has
        no strings, else one integer sum (bound to a name when ``named``:
        the caller uses it twice).  A width is a sum of parts: string
        lengths are read from the rows the tuple was *built from*, and a
        source row bound outside the current loop contributes a name bound
        once out there."""
        by_src: dict[str, List[int]] = {}
        for i in var_slots:
            src, slot = self._src(rowvar, i)
            by_src.setdefault(src, []).append(slot)
        if not by_src:
            return fixed
        terms = [
            self._hoist[src](slots) if src in self._hoist else self._lens(src, slots)
            for src, slots in by_src.items()
        ]
        expr = f"{fixed} + " + " + ".join(terms)
        if not named:
            return expr
        w = self.fresh("w")
        self.line(f"{w} = {expr}")
        return w

    # expression helpers --------------------------------------------------

    def _key_expr(self, columns, keys, rowvar: str) -> str:
        slots = [layout_of(columns)[k] for k in keys]
        if len(slots) == 1:
            return self._slot(rowvar, slots[0])
        return _tuple_display([self._slot(rowvar, s) for s in slots])

    def _combine(self, left_cols, right_cols, out_cols, lvar, rvar) -> str:
        """Emit a join's output tuple; return its name."""
        left_slots = layout_of(left_cols)
        right_slots = layout_of(right_cols)
        return self._tuple([
            (lvar, left_slots[col.coordinate])
            if col.coordinate in left_slots
            else (rvar, right_slots[col.coordinate])
            for col in out_cols
        ])

    # fused expression source ---------------------------------------------
    #
    # Expression evaluation is *silent* computation (no clock, no tracker),
    # so the compiler is free to replace the nested-closure evaluators of
    # repro.expr.compiler with inline source — as long as the produced
    # value (including SQL NULL propagation) is identical.  Shapes the
    # source compiler does not cover fall back to the compiled closures.

    def _operands(self, exprs, slot, layout, test: str):
        """``(sources, checks)`` of ``exprs`` (None if one does not fuse): an
        operand that can be NULL is walrus-bound inside its ``{test}`` check."""
        sources, checks = [], []
        for e in exprs:
            src = self._value_src(e, slot, layout)
            if src is None:
                return None
            if not _nonnull_literal(e):
                t = self.fresh("t")
                checks.append(f"({t} := {src}) {test}")
                src = t
            sources.append(src)
        return sources, checks

    def _value_src(self, expr, slot: Callable[[int], str], layout) -> Optional[str]:
        """Source computing ``compile_expr(expr, layout)(row)``, or None.

        ``slot`` maps a layout slot index to the source of that slot's
        value.  NULL propagation matches the closures exactly: any NULL
        operand of a comparison/arithmetic/function/LIKE node yields None
        (and skips evaluating the operands after it: the checks are ``or``).
        """
        if isinstance(expr, ColumnExpr):
            s = layout.get(expr.coordinate)
            if s is None:
                return None  # closure fallback raises the standard error
            return slot(s)
        if isinstance(expr, LiteralExpr):
            if expr.value is None:
                return "None"  # NULL-ness shapes the checks around it
            if type(expr.value) in _SAFE_LITERALS:
                # Bound, not formatted: the text must not depend on values.
                return self.expr_local(expr, attrgetter("value"), "k")
            return None
        if isinstance(expr, (ComparisonExpr, ArithmeticExpr)):
            table = _CMP_SRC if isinstance(expr, ComparisonExpr) else _ARITH_SRC
            operands = [expr.left, expr.right]
            form = f"{{}} {table[expr.op]} {{}}".format
        elif isinstance(expr, NegativeExpr):
            operands, form = [expr.operand], "-{}".format
        elif isinstance(expr, FunctionExpr):
            # The raw callable: the checks around it are the NULL-safety.
            operands = expr.args
            holes = ", ".join(["{}"] * len(operands))
            form = f"{self.expr_local(expr, attrgetter('func.fn'), 'sf')}({holes})".format
        elif isinstance(expr, LikeExpr):
            hit = "" if expr.negated else "not "  # of the pattern's bound match
            match = self.expr_local(expr, lambda e: like_matcher(e.pattern), "like")
            operands, form = [expr.operand], f"{match}({{}}) is {hit}None".format
        else:
            return None
        got = self._operands(operands, slot, layout, "is None")
        if got is None:
            return None
        sources, checks = got
        if not checks:
            return f"({form(*sources)})"
        return f"(None if {' or '.join(checks)} else {form(*sources)})"

    def _pred_src(self, expr, slot: Callable[[int], str], layout) -> Optional[str]:
        """Boolean source equal to ``compile_predicate(expr, layout)(row)``.

        The predicate boundary collapses three-valued logic: the source
        is True exactly when the expression evaluates to True (NULL and
        False both reject the row), mirroring ``fn(row) is True``.
        """
        if isinstance(expr, ComparisonExpr):
            got = self._operands([expr.left, expr.right], slot, layout, "is not None")
            if got is None:
                return None
            (left, right), conds = got
            conds.append(f"{left} {_CMP_SRC[expr.op]} {right}")
            return "(" + " and ".join(conds) + ")"
        if isinstance(expr, LogicalExpr):
            # Conjunction is True iff every arg is True; disjunction iff
            # any is (NULL args only matter for the non-True outcomes,
            # which all reject the row).  Short-circuiting is fine: the
            # skipped evaluation is silent.
            parts = [self._pred_src(a, slot, layout) for a in expr.args]
            if any(p is None for p in parts):
                return None
            joiner = " and " if expr.op == "and" else " or "
            return "(" + joiner.join(parts) + ")"
        if isinstance(expr, NotExpr):
            inner = self._value_src(expr.operand, slot, layout)
            if inner is None:
                return None
            t = self.fresh("t")
            return f"(({t} := {inner}) is not None and not {t})"
        value = self._value_src(expr, slot, layout)
        if value is None:
            return None
        return f"({value} is True)"

    def _emit_predicates(
        self,
        filters,
        layout,
        rowvar: Optional[str],
        split: Optional[tuple[str, str, int]] = None,
    ) -> None:
        """Short-circuit predicate chain; skips the row via ``continue``.

        ``split=(left, right, nleft)`` evaluates predicates over the
        *virtual* concatenation of two row variables (join filter
        position) without materializing it; the concatenated tuple is
        built only if some predicate needs the closure fallback.
        Predicates run in plan order, exactly like the volcano chain.
        """
        mvar = rowvar
        slot = functools.partial(self._slot, rowvar)
        if split is not None:
            lvar, rvar, nleft = split

            def slot(s: int) -> str:
                if s < nleft:
                    return self._slot(lvar, s)
                return self._slot(rvar, s - nleft)

        for f in filters:
            src = self._pred_src(f, slot, layout)
            if src is not None:
                with self.block(f"if not {src}:"):
                    self.line("continue")
                continue
            if mvar is None:
                mvar = self.fresh("m")
                self.line(f"{mvar} = {self._whole(lvar)} + {self._whole(rvar)}")
            pv = self.expr_local(f, lambda e: compile_predicate(e, layout), "p")
            with self.block(f"if not {pv}({self._whole(mvar)}):"):
                self.line("continue")

    # ------------------------------------------------------------------
    # top-level

    def compile(self, root: PhysicalNode) -> str:
        """The program's text; ``bindings`` then holds what it reads by name."""
        self._final = root.segment_id  # the plan key holds it
        self._fout = None
        if self.monitored and getattr(root, "pi_output_segment", None) is not None:
            # The result's rows: flushed since the last fold, plus ``nout``.
            self._fout = fout = self.cell("fout")
            seg = self._seg(self._final)
            self._sync += [f"{seg}.output_rows += {fout} + nout", f"{fout} = -nout"]
        self._node(root, self._driver)
        sync: List[str] = []
        if self._sync:
            # The program's tracker state and the reader-side fold over it.
            tr = self.local(lambda q: q.tracker, "tr")
            if self._total:  # before any fold zeroes what it adds
                self._pre.append(f"{tr}.total_done_bytes += {' + '.join(self._total)}")
            sync.append(" = ".join(self._cells) + " = 0")
            sync.append("def _sync():")
            sync.append("    nonlocal " + ", ".join(self._cells))
            sync.extend("    " + s for s in self._pre + self._sync)
            sync.append(f"{tr}.sync = _sync")
        lines = ["def _fused_run():"]
        lines.append("    out = []")
        lines.append("    out_append = out.append")
        lines.append("    nout = 0")
        lines.append("    _rcpu = _CPU")
        lines.append("    _rio = _IO")
        lines.extend("    " + p for p in self.pre + sync)
        for at, late in reversed(self._holes):  # back to front: positions hold
            if late:
                self.body[at:at] = late
        lines.extend(self.body)
        lines.append("    if out:")
        lines.append("        yield _B(out)")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # dispatch

    def _node(self, node: PhysicalNode, consume: Callable[[str], None]) -> None:
        """Emit ``node`` (its class is known: ``_node_key`` met it first)."""
        getattr(self, _SHAPES[type(node)][0])(node, consume)

    # ------------------------------------------------------------------
    # sources

    def _seq_scan(self, node: SeqScanNode, consume) -> None:
        cost = self.cost
        ref = getattr(node, "pi_input_ref", None)
        monitored = self.monitored and ref is not None
        per_row = monitored and self.config.progress.scan_granularity != "page"
        num_pages = node.table.heap.handle.num_pages
        layout = _scan_layout(node)
        slots = _projector(node)
        cpu_per_row = cost.cpu_tuple + len(node.filters) * cost.cpu_operator

        h = self.node_local(node, lambda n: n.table.heap.handle, "h")
        get = self.local(lambda q: q.ctx.buffer_pool.get_page, "get")
        pin = self.local(lambda q: q.ctx.buffer_pool.pin, "pin")
        unpin = self.local(lambda q: q.ctx.buffer_pool.unpin, "unpin")
        pno = self.fresh("pno")
        pg = self.fresh("pg")
        rows = self.fresh("rows")
        n = self.fresh("n")
        r = self.fresh("r")
        if per_row:
            # The row loop does not count at all: the scan's position is the
            # open page's list iterator ``it`` (how many of its ``n`` rows are
            # taken is exact for a list), the page's bytes ``pb``, and whole
            # pages since the last fold in ``dr``/``db``.  ``_sync`` credits
            # the k rows taken their integer work.page_share of the page and
            # books that against the page's end.
            segv = self._seg(ref[0])
            self._cells.append(n)
            it, pb, dr, db = (self.cell(c) for c in ("it", "pb", "dr", "db"))
            k, share = self.fresh("k"), self.fresh("share")
            self._pre += [
                f"{k} = {n} - {it}.__length_hint__() if {it} else 0",
                f"{share} = {k} * {pb} // {n} if {k} else 0",
            ]
            self._total += [db, share]
            self._sync += [
                f"{segv}.input_rows[{ref[1]}] += {dr} + {k}",
                f"{segv}.input_bytes[{ref[1]}] += {db} + {share}",
                f"{dr} = -{k}; {db} = -{share}",
            ]
        with self.block(f"for {pno} in range({num_pages}):"):
            self.line(f"{pg} = {get}({h}, {pno}, sequential=True)")
            self.line(f"{rows} = {pg}.rows")
            self.line(f"{n} = len({rows})")
            with self.block(f"if not {n}:"):
                self.line("continue")
            self.line(f"{pin}({h}, {pno})")
            with self.block("try:"):
                if cpu_per_row:
                    self._emit_advance(
                        f"{_lit(cpu_per_row)} * {n}", "_CPU", maybe_zero=False
                    )
                if per_row:
                    self.line(f"{pb} = {pg}.bytes_used")
                    self._emit_start(ref[0])
                    self.line(f"{it} = iter({rows})")
                elif monitored:
                    self.line(
                        f"{self._tr_input}"
                        f"({ref[0]}, {ref[1]}, {n}, {pg}.bytes_used)"
                    )
                if per_row:  # this page iteration has run the start test
                    self._started.add(ref[0])
                with self.block(f"for {r} in {it if per_row else rows}:"):
                    self._emit_predicates(node.filters, layout, r)
                    if slots is None:
                        consume(r)
                    else:
                        consume(self._tuple([(r, i) for i in slots]))
                if per_row:
                    self._started.discard(ref[0])
                    self.line(f"{dr} += {n}; {db} += {pb}; {it} = 0")
                self._emit_pulse()
            with self.block("finally:"):
                self.line(f"{unpin}({h}, {pno})")

    def _index_scan(self, node: IndexScanNode, consume) -> None:
        cost = self.cost
        ref = getattr(node, "pi_input_ref", None)
        monitored = self.monitored and ref is not None
        index = node.index
        bounds = node.low_inclusive, node.high_inclusive
        layout = _scan_layout(node)
        slots = _projector(node)
        per_row_cpu = cost.cpu_tuple + len(node.filters) * cost.cpu_operator

        self._emit_advance(index.height * cost.random_page_read, "_IO")
        self._emit_advance(index.height * cost.cpu_index_level, "_CPU")

        search = self.node_local(
            node, lambda n: n.index.search_range(n.low, n.high, *bounds), "search"
        )
        hh = self.node_local(node, lambda n: n.table.heap.handle, "hh")
        get = self.local(lambda q: q.ctx.buffer_pool.get_page, "get")
        pin = self.local(lambda q: q.ctx.buffer_pool.pin, "pin")
        unpin = self.local(lambda q: q.ctx.buffer_pool.unpin, "unpin")
        fixed, var_slots = node.table.schema.width_parts()  # of the heap row
        seen = self.fresh("seen")
        k = self.fresh("k")
        rid = self.fresh("rid")
        pno = self.fresh("pno")
        slot = self.fresh("slot")
        pg = self.fresh("pg")
        r = self.fresh("r")
        self.line(f"{seen} = 0")
        with self.block(f"for {k}, {rid} in {search}:"):
            with self.block(f"if {seen} % {index.fanout} == 0:"):
                self._emit_advance(cost.seq_page_read, "_IO")
                with self.block(f"if {seen}:"):
                    self._emit_pulse()
            self.line(f"{seen} += 1")
            self.line(f"{pno}, {slot} = {rid}")
            self.line(f"{pg} = {get}({hh}, {pno}, sequential=False)")
            self.line(f"{pin}({hh}, {pno})")
            with self.block("try:"):
                self.line(f"{r} = {pg}.rows[{slot}]")
                self._emit_advance(per_row_cpu, "_CPU")
                if monitored:
                    w = self._emit_width(r, fixed + len(var_slots), var_slots)
                    self._emit_count(ref[0], ref[1], w)
                self._emit_predicates(node.filters, layout, r)
                if slots is None:
                    consume(r)
                else:
                    consume(self._tuple([(r, i) for i in slots]))
            with self.block("finally:"):
                self.line(f"{unpin}({hh}, {pno})")

    def _merge_join(self, node: MergeJoinNode, consume) -> None:
        # Not fused: the volcano operator runs as a row source and
        # everything above it is fused.  Its children are volcano
        # operators too (built by MergeJoinOp itself).
        from repro.executor.merge_join import MergeJoinOp

        i = self._node_at[id(node)]

        def bind(q: "FusedQuery") -> MergeJoinOp:
            q.ops.append(MergeJoinOp(q.nodes[i], q.ctx))
            return q.ops[-1]

        opv = self.local(bind, "mj")
        it = self.fresh("it")
        with self.block(f"for {it} in {opv}.rows():"):
            with self.block(f"if {it} is PULSE:"):
                self._emit_pulse()
                self.line("continue")
            consume(it)

    # ------------------------------------------------------------------
    # streaming stages

    def _project(self, node: ProjectNode, consume) -> None:
        cost = self.cost
        segment = getattr(node, "pi_output_segment", None)
        monitored = self.monitored and segment is not None
        layout = {c.coordinate: i for i, c in enumerate(node.child.columns)}
        computed = sum(1 for e in node.exprs if not isinstance(e, ColumnExpr))
        per_row = cost.cpu_tuple + computed * cost.cpu_operator
        fixed, var_slots = self._width_parts([e.type for e in node.exprs])

        # Expressions fuse into one output tuple display — column
        # references and simple computations become inline source, the
        # rest keep their compiled closures.  No per-expression hop.
        # An identity projection (every input slot passed through in
        # order) reuses the input tuple outright: every row in the engine
        # is an immutable tuple, so the rebuilt copy volcano makes is
        # observationally the same object.
        identity = len(node.exprs) == len(node.child.columns) and all(
            isinstance(e, ColumnExpr) and layout.get(e.coordinate) == i
            for i, e in enumerate(node.exprs)
        )
        closures: dict[int, str] = {}

        def part_src(i, e, rowvar: str) -> str:
            src = self._value_src(e, functools.partial(self._slot, rowvar), layout)
            if src is not None:
                return src
            name = closures.get(i)
            if name is None:
                name = closures[i] = self.expr_local(
                    e, lambda x: compile_expr(x, layout), "fn"
                )
            return f"{name}({self._whole(rowvar)})"

        def stage(rowvar: str) -> None:
            self._emit_advance(per_row, "_CPU")
            if identity:
                o = rowvar
            else:
                o = self._tuple([
                    (rowvar, layout[e.coordinate])
                    if isinstance(e, ColumnExpr) and e.coordinate in layout
                    else part_src(i, e, rowvar)
                    for i, e in enumerate(node.exprs)
                ])
            if monitored and segment != self._final:
                self._emit_count(segment, None, self._emit_width(o, fixed, var_slots))
            elif monitored and consume != self._driver:  # a stage in between
                self._emit_count(segment, None, None)
            consume(o)

        self._node(node.child, stage)

    def _filter(self, node: FilterNode, consume) -> None:
        layout = layout_of(node.child.columns)
        per_row = len(node.predicates) * self.cost.cpu_operator

        def stage(rowvar: str) -> None:
            self._emit_advance(per_row, "_CPU")
            self._emit_predicates(node.predicates, layout, rowvar)
            consume(rowvar)

        self._node(node.child, stage)

    def _distinct(self, node: DistinctNode, consume) -> None:
        per_row = self.cost.cpu_hash
        seen = self.fresh("seen")
        add = self.fresh("seenadd")
        self.line(f"{seen} = set()")
        self.line(f"{add} = {seen}.add")

        def stage(rowvar: str) -> None:
            self._emit_advance(per_row, "_CPU")
            with self.block(f"if {self._whole(rowvar)} in {seen}:"):
                self.line("continue")
            self.line(f"{add}({rowvar})")
            consume(rowvar)

        self._node(node.child, stage)

    def _limit(self, node: LimitNode, consume) -> None:
        if node.limit <= 0:
            # The volcano LimitOp never pulls its child; emit nothing.
            return
        rem = self.fresh("rem")
        self.line(f"{rem} = {self.node_local(node, attrgetter('limit'), 'lim')}")

        def stage(rowvar: str) -> None:
            consume(rowvar)
            self.line(f"{rem} -= 1")
            with self.block(f"if {rem} <= 0:"):
                self.line("raise _Stop")

        with self.block("try:"):
            self._node(node.child, stage)
        with self.block("except _Stop:"):
            self.line("pass")

    # ------------------------------------------------------------------
    # hash join

    def _hash_join(self, node: HashJoinNode, consume) -> None:
        if node.num_batches == 1:
            self._hash_join_memory(node, consume)
        else:
            self._hash_join_partitioned(node, consume)

    def _build_row_update(
        self, rowvar: str, key_expr: str, table: str, tget: str
    ) -> None:
        """Shared build-side hash-table insert (NULL keys never join)."""
        self._whole(rowvar)
        k = self.fresh("k")
        bkt = self.fresh("bkt")
        self.line(f"{k} = {key_expr}")
        with self.block(f"if {k} is not None:"):
            self.line(f"{bkt} = {tget}({k})")
            with self.block(f"if {bkt} is None:"):
                self.line(f"{table}[{k}] = [{rowvar}]")
            with self.block("else:"):
                self.line(f"{bkt}.append({rowvar})")

    def _probe_row(
        self, node: HashJoinNode, rowvar: str, table_get: str, consume
    ) -> None:
        """Per-probe-row code: key lookup, bucket charge, match emission."""
        cost = self.cost
        layout = None
        if node.extra_filters:
            layout = concat_layout(node.build.columns, node.probe.columns)
        per_match = cost.cpu_tuple + len(node.extra_filters) * cost.cpu_operator
        k = self.fresh("k")
        bkt = self.fresh("bkt")
        br = self.fresh("br")
        self.line(
            f"{k} = " + self._key_expr(node.probe.columns, node.probe_keys, rowvar)
        )
        with self.block(f"if {k} is None:"):
            self.line("continue")
        self.line(f"{bkt} = {table_get}({k})")
        with self.block(f"if {bkt} is None:"):
            self.line("continue")
        if per_match:
            self._emit_advance(
                f"{_lit(per_match)} * len({bkt})", "_CPU", maybe_zero=False
            )
        with self._hoisting(rowvar), self.block(f"for {br} in {bkt}:"):
            if node.extra_filters:
                self._emit_predicates(
                    node.extra_filters,
                    layout,
                    None,
                    split=(br, rowvar, len(node.build.columns)),
                )
            consume(self._combine(
                node.build.columns, node.probe.columns, node.columns, br, rowvar
            ))

    def _hash_join_memory(self, node: HashJoinNode, consume) -> None:
        cost = self.cost
        build_segment = getattr(node, "pi_build_segment", None)
        hash_ref = getattr(node, "pi_hash_input_ref", None)
        mon_build = self.monitored and build_segment is not None
        fixed, var_slots = self._width_parts(
            [c.type for c in node.build.columns]
        )
        table = self.fresh("tbl")
        tget = self.fresh("tget")
        trows = self.fresh("trows")
        tbytes = self.fresh("tbytes")
        self.line(f"{table} = {{}}")
        self.line(f"{tget} = {table}.get")
        self.line(f"{trows} = 0")
        self.line(f"{tbytes} = 0.0")

        def build_sink(rowvar: str) -> None:
            self._emit_advance(cost.cpu_hash, "_CPU")
            w = self._emit_width(rowvar, fixed, var_slots, named=mon_build)
            self.line(f"{trows} += 1")
            self.line(f"{tbytes} += {w}")
            if mon_build:
                self._emit_count(build_segment, None, w)
            self._build_row_update(
                rowvar,
                self._key_expr(node.build.columns, node.build_keys, rowvar),
                table,
                tget,
            )

        self._node(node.build, build_sink)
        if mon_build:
            self.line(f"{self._tr_segfin}({build_segment})")
        if self.monitored and hash_ref is not None:
            # The probe segment "handles" the hash table once as it starts.
            self.line(
                f"{self._tr_input}"
                f"({hash_ref[0]}, {hash_ref[1]}, {trows}, {tbytes})"
            )

        def probe_stage(rowvar: str) -> None:
            self._emit_advance(cost.cpu_hash, "_CPU")
            self._probe_row(node, rowvar, tget, consume)

        self._node(node.probe, probe_stage)

    def _hash_join_partitioned(self, node: HashJoinNode, consume) -> None:
        cost = self.cost
        nb = node.num_batches
        mk = self.local(lambda q: _make_partitions, "mkparts")
        ctxv = self.local(lambda q: q.ctx, "ctx")
        temps = self.local(lambda q: q.temps, "temps")

        def partition(child, columns, keys, segment, side: str) -> str:
            monitored = self.monitored and segment is not None
            fixed, var_slots = self._width_parts([c.type for c in columns])
            # _stable_hash is the identity on an integer column's values.
            key_type = columns[layout_of(columns)[keys[0]]].type
            plain_int = len(keys) == 1 and isinstance(key_type, IntegerType)
            sh = None if plain_int else self.local(lambda q: _stable_hash, "sh")
            cols = self.node_local(child, attrgetter("columns"), "cols")
            parts = self.fresh("parts")
            pages = self.fresh("pages")
            # The file name is id()-derived: made per query, never formatted.
            namev = self.node_local(node, lambda n: f"hj_{side}_{id(n)}", "nm")
            self.line(f"{parts} = {mk}({ctxv}, {temps}, {cols}, {nb}, {namev})")
            self.line(f"{pages} = [p.page for p in {parts}]")

            def sink(rowvar: str) -> None:
                self._emit_advance(cost.cpu_hash, "_CPU")
                k = self.fresh("k")
                self.line(f"{k} = " + self._key_expr(columns, keys, rowvar))
                b = self.fresh("b")
                route = k if sh is None else f"{sh}({k})"
                self.line(f"{b} = {route} % {nb} if {k} is not None else 0")
                # This width *is* the spill schema's row_width of the row.
                w = self._emit_width(rowvar, fixed, var_slots, named=True)
                # HeapFile.append inline: fill the open page, or roll it.
                pg = self.fresh("pg")
                self.line(f"{pg} = {pages}[{b}]")
                full = f"{pg}.bytes_used + {w} > {self.config.page_size}"
                with self.block(f"if {full} and {pg}.rows:"):
                    self.line(f"{pg} = {pages}[{b}] = {parts}[{b}].roll()")
                self.line(f"{pg}.rows.append({self._whole(rowvar)})")
                self.line(f"{pg}.bytes_used += {w}")
                if monitored:
                    self._emit_count(segment, None, w)

            self._node(child, sink)
            p = self.fresh("p")
            with self.block(f"for {p} in {parts}:"):
                self.line(f"{p}.flush()")
            if monitored:
                self.line(f"{self._tr_segfin}({segment})")
            return parts

        build_parts = partition(
            node.build,
            node.build.columns,
            node.build_keys,
            getattr(node, "pi_build_segment", None),
            "build",
        )
        probe_parts = partition(
            node.probe,
            node.probe.columns,
            node.probe_keys,
            getattr(node, "pi_probe_segment", None),
            "probe",
        )

        pa_ref = getattr(node, "pi_pa_input_ref", None)
        pb_ref = getattr(node, "pi_pb_input_ref", None)
        dread = self.local(lambda q: q.ctx.disk.read_page, "dread")

        def read_partition(handle_expr: str, ref, per_row) -> None:
            """Page loop over one spilled partition; ``per_row`` emits the
            consumer's code for each row (mirrors ``_read_partition``)."""
            h = self.fresh("h")
            pno = self.fresh("pno")
            pg = self.fresh("pg")
            n = self.fresh("n")
            r = self.fresh("r")
            self.line(f"{h} = {handle_expr}")
            with self.block(f"for {pno} in range({h}.num_pages):"):
                self.line(f"{pg} = {dread}({h}, {pno}, sequential=True)")
                self.line(f"{n} = len({pg}.rows)")
                if cost.cpu_tuple:
                    with self.block(f"if {n}:"):
                        self._emit_advance(
                            f"{_lit(cost.cpu_tuple)} * {n}",
                            "_CPU",
                            maybe_zero=False,
                        )
                if self.monitored and ref is not None:
                    self.line(
                        f"{self._tr_input}"
                        f"({ref[0]}, {ref[1]}, {n}, {pg}.bytes_used)"
                    )
                with self.block(f"for {r} in {pg}.rows:"):
                    per_row(r)
                self._emit_pulse()

        b = self.fresh("b")
        table = self.fresh("tbl")
        tget = self.fresh("tget")
        with self.block(f"for {b} in range({nb}):"):
            self.line(f"{table} = {{}}")
            self.line(f"{tget} = {table}.get")

            def build_row(rowvar: str) -> None:
                self._emit_advance(cost.cpu_hash, "_CPU")
                self._build_row_update(
                    rowvar,
                    self._key_expr(node.build.columns, node.build_keys, rowvar),
                    table,
                    tget,
                )

            read_partition(f"{build_parts}[{b}].handle", pa_ref, build_row)

            def probe_row(rowvar: str) -> None:
                self._emit_advance(cost.cpu_hash, "_CPU")
                self._probe_row(node, rowvar, tget, consume)

            read_partition(f"{probe_parts}[{b}].handle", pb_ref, probe_row)

    # ------------------------------------------------------------------
    # nested loops join

    def _nest_loop(self, node: NestLoopNode, consume) -> None:
        cost = self.cost
        inner_ref = getattr(node, "pi_inner_input_ref", None)
        fixed, var_slots = self._width_parts(
            [c.type for c in node.inner.columns]
        )
        layout = None
        if node.predicates:
            layout = concat_layout(node.outer.columns, node.inner.columns)

        inner = self.fresh("inner")
        iapp = self.fresh("iapp")
        ibytes = self.fresh("ibytes")
        self.line(f"{inner} = []")
        self.line(f"{iapp} = {inner}.append")
        self.line(f"{ibytes} = 0.0")

        def inner_sink(rowvar: str) -> None:
            self._emit_advance(cost.cpu_tuple, "_CPU")
            w = self._emit_width(rowvar, fixed, var_slots)
            self.line(f"{ibytes} += {w}")
            self.line(f"{iapp}({self._whole(rowvar)})")

        self._node(node.inner, inner_sink)
        if self.monitored and inner_ref is not None:
            self.line(
                f"{self._tr_input}({inner_ref[0]}, {inner_ref[1]}, "
                f"len({inner}), {ibytes})"
            )
        # A consumer that wants string lengths of inner rows gets them from a
        # list built here, parallel to ``inner``: once per row, not per pair.
        lens_at = self.hole()

        poc = self.fresh("poc")
        rio = self.fresh("rio")
        first = self.fresh("first")
        self.line(
            f"{poc} = len({inner}) * {_lit(cost.cpu_operator)}"
            f" * {max(1, len(node.predicates))}"
        )
        self.line(f"{rio} = 0.0")
        with self.block(f"if {ibytes} > {_lit(self.work_mem_bytes)}:"):
            self.line(
                f"{rio} = ({ibytes} / {self.config.page_size})"
                f" * {_lit(cost.seq_page_read)}"
            )
        self.line(f"{first} = True")

        ir = self.fresh("ir")

        def outer_stage(rowvar: str) -> None:
            self._emit_advance(poc, "_CPU")
            with self.block(f"if {rio} and not {first}:"):
                self._emit_advance(rio, "_IO", maybe_zero=False)
            self.line(f"{first} = False")
            with self._hoisting(rowvar):
                head = self.hole()  # written below, once the loop body has asked
                zipped = [(ir, inner)]

                def inner_lens(slots: List[int]) -> str:
                    iw, pw = self.fresh("iw"), self.fresh("pw")
                    lens_at(f"{iw} = [{self._lens('_r', slots)} for _r in {inner}]")
                    zipped.append((pw, iw))
                    return pw

                self._hoist[ir] = inner_lens
                with _Block(self):
                    if node.predicates:
                        self._emit_predicates(
                            node.predicates,
                            layout,
                            None,
                            split=(rowvar, ir, len(node.outer.columns)),
                        )
                    consume(self._combine(
                        node.outer.columns, node.inner.columns, node.columns,
                        rowvar, ir,
                    ))
                names, lists = (", ".join(x) for x in zip(*zipped))
                over = f"zip({lists})" if len(zipped) > 1 else lists
                head(f"for {names} in {over}:")

        self._node(node.outer, outer_stage)

    # ------------------------------------------------------------------
    # sort

    def _sort(self, node: SortNode, consume) -> None:
        cost = self.cost
        i = self._node_at[id(node)]

        def bind(q: "FusedQuery") -> SortRuns:
            q.sorts.append(SortRuns(q.nodes[i], q.ctx))
            return q.sorts[-1]

        hv = self.local(bind, "sort")
        keyv = self.local(lambda q: q.sorts[-1].key, "skey")  # of the one just made
        segment = getattr(node, "pi_sort_segment", None)
        ref = getattr(node, "pi_merge_input_ref", None)
        mon_out = self.monitored and segment is not None
        mon_in = self.monitored and ref is not None
        fixed, var_slots = self._width_parts([c.type for c in node.columns])

        buf = self.fresh("buf")
        bapp = self.fresh("bapp")
        wds = self.fresh("wds")
        wapp = self.fresh("wapp")
        bbytes = self.fresh("bbytes")
        self.line(f"{buf}, {wds} = [], []")
        self.line(f"{bapp}, {wapp} = {buf}.append, {wds}.append")
        self.line(f"{bbytes} = 0.0")

        def absorb(rowvar: str) -> None:
            self._emit_advance(cost.cpu_tuple, "_CPU")
            w = self._emit_width(rowvar, fixed, var_slots, named=True)
            if mon_out:
                self._emit_count(segment, None, w)
            self.line(f"{bapp}({self._whole(rowvar)})")
            self.line(f"{wapp}({w})")
            self.line(f"{bbytes} += {w}")
            with self.block(f"if {bbytes} > {_lit(self.work_mem_bytes)}:"):
                self.line(f"yield from {hv}.spill({buf}, {wds})")  # empties both
                self.line(f"{bbytes} = 0.0")

        self._node(node.child, absorb)

        mem = self.fresh("mem")
        self.line(f"{mem} = None")
        with self.block(f"if {hv}.runs:"):
            with self.block(f"if {buf}:"):
                self.line(f"yield from {hv}.spill({buf}, {wds})")
            self.line(f"yield from {hv}.collapse()")
        with self.block("else:"):
            self.line(f"yield from {hv}.sort_buffer({buf})")
            self.line(f"{mem} = {buf}")
        if mon_out:
            self.line(f"{self._tr_segfin}({segment})")

        r = self.fresh("r")
        st = self.fresh("st")
        with self.block(f"if {mem} is not None:"):
            with self.block(f"for {st}, {r} in enumerate({mem}, 1):"):
                self._emit_advance(cost.cpu_tuple, "_CPU")
                if mon_in:
                    w = self._emit_width(r, fixed, var_slots)
                    self._emit_count(ref[0], ref[1], w)
                # The single-pass loop gives a consumer's ``continue``
                # (filter/distinct row drop) a target that still falls
                # through to the pulse-cadence check below, exactly like
                # the volcano sort whose pulses don't depend on parents.
                with self.block("for _sk in _ONE:"):
                    consume(r)
                with self.block(f"if {st} % {_MERGE_PULSE_ROWS} == 0:"):
                    self._emit_pulse()
        with self.block("else:"):
            cmp_ = self.fresh("cmp")
            merged = self.fresh("merged")
            self.line(
                f"{cmp_} = {_lit(cost.cpu_compare)}"
                f" * max(1, len({hv}.runs)).bit_length()"
            )
            self.line(f"{merged} = 0")
            with self.block(
                f"for {r} in heapq.merge("
                f"*({hv}.read_run(rr) for rr in {hv}.runs), key={keyv}):"
            ):
                self._emit_advance(cmp_, "_CPU")
                with self.block("for _sk in _ONE:"):
                    consume(r)
                self.line(f"{merged} += 1")
                with self.block(f"if {merged} % {_MERGE_PULSE_ROWS} == 0:"):
                    self._emit_pulse()

    # ------------------------------------------------------------------
    # hash aggregation

    def _aggregate(self, node: HashAggregateNode, consume) -> None:
        from repro.executor.aggregate import HashAggregateOp, _AggState

        cost = self.cost
        segment = getattr(node, "pi_agg_segment", None)
        groups_ref = getattr(node, "pi_groups_input_ref", None)
        mon_seg = self.monitored and segment is not None
        mon_ref = self.monitored and groups_ref is not None
        child_layout = layout_of(node.child.columns)
        key_slots = [child_layout[k] for k in node.group_keys]
        for agg in node.aggregates:
            if not isinstance(agg, AggregateExpr):
                raise ExecutionError("aggregate node holds a non-aggregate")
        kinds = [a.kind for a in node.aggregates]
        na = len(node.aggregates)
        per_row = cost.cpu_hash + na * cost.cpu_operator
        statev = self.local(lambda q: _AggState, "AggState")
        finv = self.local(lambda q: HashAggregateOp._finalize, "aggfin")
        wfv = self.node_local(node, lambda n: row_width_fn(n.columns), "aggw")
        arg_closures: dict[int, str] = {}

        def arg_src(i: int, rowvar: str) -> Optional[str]:
            """Inline source of aggregate i's argument (None = count(*))."""
            arg = node.aggregates[i].arg
            if arg is None:
                return None
            src = self._value_src(
                arg, functools.partial(self._slot, rowvar), child_layout
            )
            if src is not None:
                return src
            name = arg_closures.get(i)
            if name is None:
                name = arg_closures[i] = self.expr_local(
                    arg, lambda x: compile_expr(x, child_layout), "afn"
                )
            return f"{name}({self._whole(rowvar)})"

        groups = self.fresh("groups")
        gget = self.fresh("gget")
        grows = self.fresh("grows")
        st0 = self.fresh("st0")
        self.line(f"{groups} = {{}}")
        self.line(f"{gget} = {groups}.get")
        self.line(f"{grows} = {{}}")
        if not node.group_keys:
            # Single-group aggregation keeps its one state in a local
            # instead of hashing the empty key per row (silent work).
            self.line(f"{st0} = None")

        def absorb(rowvar: str) -> None:
            self._emit_advance(per_row, "_CPU")
            if not node.group_keys:
                st = st0
                with self.block(f"if {st} is None:"):
                    self.line(f"{st} = {statev}({na})")
                    self.line(f"{groups}[()] = {st}")
                    self.line(f"{grows}[()] = {self._whole(rowvar)}")
            else:
                k = self.fresh("k")
                st = self.fresh("st")
                self.line(
                    f"{k} = "
                    + self._key_expr(node.child.columns, node.group_keys, rowvar)
                )
                self.line(f"{st} = {gget}({k})")
                with self.block(f"if {st} is None:"):
                    self.line(f"{st} = {statev}({na})")
                    self.line(f"{groups}[{k}] = {st}")
                    self.line(f"{grows}[{k}] = {self._whole(rowvar)}")
            for i in range(na):
                src = arg_src(i, rowvar)
                if src is None:  # count(*)
                    self.line(f"{st}.counts[{i}] += 1")
                    continue
                v = self.fresh("v")
                self.line(f"{v} = {src}")
                with self.block(f"if {v} is not None:"):  # aggregates skip NULLs
                    self.line(f"{st}.counts[{i}] += 1")
                    kind = kinds[i]
                    if kind in ("sum", "avg"):
                        self.line(f"{st}.sums[{i}] += {v}")
                    elif kind == "min":
                        with self.block(
                            f"if {st}.mins[{i}] is None"
                            f" or {v} < {st}.mins[{i}]:"
                        ):
                            self.line(f"{st}.mins[{i}] = {v}")
                    elif kind == "max":
                        with self.block(
                            f"if {st}.maxs[{i}] is None"
                            f" or {v} > {st}.maxs[{i}]:"
                        ):
                            self.line(f"{st}.maxs[{i}] = {v}")

        self._node(node.child, absorb)

        if not node.group_keys:
            # Global aggregates over an empty input still produce one row.
            with self.block(f"if {st0} is None:"):
                self.line(f"{groups}[()] = {statev}({na})")
                self.line(f"{grows}[()] = None")

        output = self.fresh("outputs")
        oapp = self.fresh("oapp")
        k = self.fresh("k")
        st = self.fresh("st")
        br = self.fresh("br")
        vals = self.fresh("vals")
        o = self.fresh("o")
        self.line(f"{output} = []")
        self.line(f"{oapp} = {output}.append")
        with self.block(f"for {k}, {st} in {groups}.items():"):
            self.line(f"{br} = {grows}[{k}]")
            with self.block(f"if {br} is not None:"):
                self.line(
                    f"{vals} = ["
                    + ", ".join(f"{br}[{s}]" for s in key_slots)
                    + "]"
                )
            with self.block("else:"):
                self.line(f"{vals} = []")
            for i, kind in enumerate(kinds):
                self.line(f"{vals}.append({finv}({kind!r}, {st}, {i}))")
            self.line(f"{o} = tuple({vals})")
            self._emit_advance(cost.cpu_tuple, "_CPU")
            if mon_seg:
                self._emit_count(segment, None, f"{wfv}({o})")
            self.line(f"{oapp}({o})")
        if mon_seg:
            self.line(f"{self._tr_segfin}({segment})")

        def stream() -> None:
            with self.block(f"for {o} in {output}:"):
                self._emit_advance(cost.cpu_tuple, "_CPU")
                if mon_ref:
                    self._emit_count(groups_ref[0], groups_ref[1], f"{wfv}({o})")
                consume(o)

        stream()


# ----------------------------------------------------------------------
# the plan-shape key and the program cache

#: Node class -> (its emitter, the ``pi_*`` annotations it can carry).
_SHAPES: dict[type, tuple[str, tuple[str, ...]]] = {
    SeqScanNode: ("_seq_scan", ("pi_input_ref",)),
    IndexScanNode: ("_index_scan", ("pi_input_ref",)),
    ProjectNode: ("_project", ("pi_output_segment",)),
    HashJoinNode: ("_hash_join", (
        "pi_build_segment", "pi_hash_input_ref", "pi_probe_segment",
        "pi_pa_input_ref", "pi_pb_input_ref",
    )),
    NestLoopNode: ("_nest_loop", ("pi_inner_input_ref",)),
    SortNode: ("_sort", ("pi_sort_segment", "pi_merge_input_ref")),
    HashAggregateNode: ("_aggregate", ("pi_agg_segment", "pi_groups_input_ref")),
    MergeJoinNode: ("_merge_join", ()),
    FilterNode: ("_filter", ()),
    DistinctNode: ("_distinct", ()),
    LimitNode: ("_limit", ()),
}


def _expr_key(expr, exprs: list):
    """The shape of ``expr``: classes, operators, column coordinates and, of
    a literal, what its type decides (None: NULL, else whether it is bound
    inline) — never its value.  Whatever is not a column joins ``exprs``,
    where bindings find this query's own."""
    if isinstance(expr, ColumnExpr):
        return (expr.table_index, expr.column_index)
    exprs.append(expr)
    cls = type(expr)
    if isinstance(expr, LiteralExpr):
        return None if expr.value is None else type(expr.value) in _SAFE_LITERALS
    if isinstance(expr, (ComparisonExpr, ArithmeticExpr)):
        return (cls, expr.op, _expr_key(expr.left, exprs), _expr_key(expr.right, exprs))
    if isinstance(expr, LogicalExpr):
        return (cls, expr.op, *[_expr_key(a, exprs) for a in expr.args])
    if isinstance(expr, FunctionExpr):
        return (cls, *[_expr_key(a, exprs) for a in expr.args])
    if isinstance(expr, LikeExpr):
        return (cls, expr.negated, _expr_key(expr.operand, exprs))
    if isinstance(expr, (NotExpr, NegativeExpr)):
        return (cls, _expr_key(expr.operand, exprs))
    if isinstance(expr, AggregateExpr):
        return (cls, expr.kind, expr.arg is not None and _expr_key(expr.arg, exprs))
    return cls  # runs as a compile_expr closure, made per query of the whole


def _node_key(node: PhysicalNode, nodes: list, exprs: list) -> tuple:
    """``(class, columns, annotations, facts, expressions, children)`` of a
    plan node: what the emitters read off it, as values.  Estimates, index
    bounds, LIMIT counts and sort keys are not read but bound, so not here;
    a catalog fact that changes (pages, index height) is a different key."""
    nodes.append(node)
    cls = type(node)
    if cls not in _SHAPES:
        raise ExecutionError(f"no fused pipeline for plan node {cls.__name__}")
    facts: object = ()
    own: list = []
    if cls is SeqScanNode:
        table = node.table
        facts = (node.table_index, len(table.schema), table.heap.handle.num_pages)
        own = node.filters
    elif cls is IndexScanNode:
        facts = (
            node.table_index, len(node.table.schema),
            node.index.height, node.index.fanout,
            node.low_inclusive, node.high_inclusive,
            node.table.schema.width_parts(),  # the heap row's, for its width
        )
        own = node.filters
    elif cls is HashJoinNode:
        facts = (node.num_batches, tuple(node.build_keys), tuple(node.probe_keys))
        own = node.extra_filters
    elif cls is NestLoopNode or cls is FilterNode:
        own = node.predicates
    elif cls is ProjectNode:
        facts = tuple([e.type for e in node.exprs])
        own = node.exprs
    elif cls is HashAggregateNode:
        facts = tuple(node.group_keys)
        own = node.aggregates
    elif cls is LimitNode:
        facts = node.limit > 0
    return (
        cls,
        tuple([(c.coordinate, c.type) for c in node.columns]),
        (node.segment_id, *[getattr(node, a, None) for a in _SHAPES[cls][1]]),
        facts,
        tuple([_expr_key(e, exprs) for e in own]),
        tuple([_node_key(c, nodes, exprs) for c in node.children]),
    )


def _plan_key(root: PhysicalNode, ctx: ExecContext, nodes: list, exprs: list) -> tuple:
    """What a program is specialized on: the frozen config, monitored or
    plain, and the plan's shape.  Values only — no estimate, literal,
    ``id()`` or object of a database — so an entry pins nothing."""
    return (ctx.config, ctx.tracker is not None, _node_key(root, nodes, exprs))


class _Program:
    """One cached shape: text, code object, and how a query binds to it."""

    __slots__ = ("source", "code", "bindings", "layouts")

    def __init__(self, compiler: _Compiler, root: PhysicalNode):
        self.source = compiler.compile(root)
        self.code: CodeType = compile(self.source, "<fused-plan>", "exec")
        self.bindings = compiler.bindings
        #: Tracker layouts (inputs per segment) ``check_tracker_alignment``
        #: passed: the annotations are in the key, so the verdict holds.
        self.layouts: set[tuple[int, ...]] = set()


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


_CACHE_SIZE = 256
#: Plan-shape key -> program, least recently used first.
_programs: "OrderedDict[tuple, _Program]" = OrderedDict()
_counts = [0, 0]  # hits, misses


def code_cache_info() -> CacheInfo:
    """``functools``-style counters of the program cache."""
    return CacheInfo(_counts[0], _counts[1], _CACHE_SIZE, len(_programs))


def code_cache_clear() -> None:
    _programs.clear()
    _counts[:] = 0, 0


#: What every program's ``env`` holds besides its bindings.
_ENV = {
    "PULSE": PULSE,
    "_B": Batch,
    "_Stop": _StopPipeline,
    "_CPU": CPU,
    "_IO": IO,
    "_ONE": (0,),
    "heapq": heapq,
}


class FusedQuery:
    """One query bound to the fused program of its plan's shape.

    Construction walks the plan once for its key (:func:`_plan_key`).  A
    shape met before runs no emitter: the cached program's bindings fill
    ``env`` with this query's own objects and ``exec`` of the cached code
    object defines the generator.  A new shape is compiled first and then
    bound the same way.  Under ``REPRO_VERIFY=strict`` every hit also
    regenerates the text and raises if the key hid a difference.
    """

    def __init__(self, root: PhysicalNode, ctx: ExecContext):
        self.ctx = ctx
        self.tracker = tracker = ctx.tracker
        #: The plan's nodes / non-column expressions in key-walk order.
        self.nodes: List[PhysicalNode] = []
        self.exprs: list = []
        #: Made by the bindings, released by close(): embedded volcano
        #: operators (merge join), sort states, hash-partition temp files.
        self.ops: list = []
        self.sorts: List[SortRuns] = []
        self.temps: List[HeapFile] = []
        key = _plan_key(root, ctx, self.nodes, self.exprs)
        program = _programs.get(key)
        if program is None:
            _counts[1] += 1
            compiler = self._compiler()
            program = _Program(compiler, root)
            # An expression object in two places has one place in the walk
            # for two binding sites: right for this plan only, so not kept.
            if len(compiler._expr_at) == len(self.exprs):
                _programs[key] = program
                if len(_programs) > _CACHE_SIZE:
                    _programs.popitem(last=False)
        else:
            _counts[0] += 1
            _programs.move_to_end(key)
            if resolve_verify_mode(ctx.config) == "strict":
                if self._compiler().compile(root) != program.source:
                    raise ExecutionError(
                        "fused program cache: this plan's text differs from "
                        "the program cached under its shape key"
                    )
        if tracker is not None:
            layout = tuple([len(s.input_rows) for s in tracker.segments])
            if layout not in program.layouts:
                check_tracker_alignment(root, tracker)
                program.layouts.add(layout)
        #: Generated source, kept for debugging / inspection.
        self.source = program.source
        env = dict(_ENV)
        for name, bind in program.bindings:  # the only way env is filled
            env[name] = bind(self)
        exec(program.code, env)  # noqa: S102 - engine-generated source, no user input
        self._gen = env.pop("_fused_run")()  # env must not hold its own function

    def _compiler(self) -> _Compiler:
        return _Compiler(
            self.ctx.config, self.tracker is not None, self.nodes, self.exprs
        )

    def run(self) -> Iterator:
        """The program's item stream: Batch objects and PULSE markers."""
        return self._gen

    def close(self) -> None:
        """Release resources: pins (via generator unwind), the tracker's
        hook (after a last fold), temps, operators."""
        self._gen.close()
        if self.tracker is not None:
            self.tracker.detach()
        for op in self.ops:
            op.close()
        for sort in self.sorts:
            sort.drop()
        for f in self.temps:
            f.drop()
        self.temps.clear()


class _Block:
    """Indentation context for :class:`_Compiler` (with-statement helper)."""

    def __init__(self, compiler: _Compiler):
        self._c = compiler

    def __enter__(self) -> "_Block":
        self._c.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._c.depth -= 1
