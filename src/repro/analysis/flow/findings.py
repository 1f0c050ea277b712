"""The finding type shared by the interprocedural passes, and its one
suppression mechanism.

Flow findings differ from per-file :class:`~repro.analysis.rules.LintFinding`
in two ways: they name the *function* they occur in, and they may carry a
call-path **witness** — the chain of calls that makes an interprocedural
claim checkable by a human.

A finding is suppressed the way a lint finding is: a ``noqa`` comment
naming its rule on the reported line.  Flow suppressions vouch for whole
call paths, so :func:`apply_noqa` is stricter than the lint driver — the
comment must carry a written reason, and one that matches no finding is
debt (the hazard was fixed, so the comment must go) that ``--strict``
fails on.
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.lint import parse_noqa


@dataclass(frozen=True)
class FlowFinding:
    """One interprocedural diagnostic at a source location."""

    rule: str
    #: Repo-relative posix path of the file.
    path: str
    #: Qualified name of the containing function ("repro.sched.scheduler.
    #: CooperativeScheduler._run_slice"), or the module name for
    #: module-level findings.
    function: str
    line: int
    message: str
    #: Call chain demonstrating the claim, outermost first.  Empty when
    #: the finding is self-contained.
    witness: tuple[str, ...] = field(default=())

    def format(self) -> str:
        lines = [f"{self.path}:{self.line}: {self.rule} [{self.function}] "
                 f"{self.message}"]
        if self.witness:
            lines.append("    via " + " -> ".join(self.witness))
        return "\n".join(lines)


def rel_path(path: str, root: Optional[Path]) -> str:
    """``path`` relative to ``root`` (posix), or unchanged when outside it."""
    p = Path(path)
    if root is not None:
        try:
            return p.relative_to(root).as_posix()
        except ValueError:
            pass
    return p.as_posix()


def sort_findings(findings: list[FlowFinding]) -> list[FlowFinding]:
    """Deterministic report order (golden tests pin the rendered output)."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.function))


def render_flow_findings(findings: list[FlowFinding]) -> str:
    """Ruff-style report: one block per finding plus a per-rule summary."""
    ordered = sort_findings(findings)
    if not ordered:
        return "no findings"
    lines = [f.format() for f in ordered]
    by_rule: dict[str, int] = {}
    for f in ordered:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    lines.append("")
    lines.append(f"{len(ordered)} finding(s)")
    for rule in sorted(by_rule):
        lines.append(f"  {rule}: {by_rule[rule]}")
    return "\n".join(lines)


def apply_noqa(
    findings: list[FlowFinding],
    graph: CallGraph,
    root: Optional[Path],
    family: str,
) -> tuple[list[FlowFinding], int, list[str]]:
    """Drop findings vouched for by a ``noqa`` comment on their line.

    Every source with a function in ``graph`` is read; only real comments
    count (a noqa quoted in a docstring is text), and only codes starting
    with ``family`` (``"REPRO10"`` races, ``"REPRO11"`` effects) are this
    pass's to police.  Returns the unsuppressed findings, how many were
    suppressed, and one complaint per comment that has no reason (it
    suppresses nothing) or that no finding used.
    """
    #: (display path, line, code) -> the comment states a reason.
    comments: dict[tuple[str, int, str], bool] = {}
    for path in sorted({info.path for info in graph.functions.values()}):
        text = Path(path).read_text(encoding="utf-8")
        if "noqa" not in text:
            continue
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            codes, reason = parse_noqa(token.string) or (frozenset(), "")
            for code in codes:
                if code.startswith(family):
                    key = (rel_path(path, root), token.start[0], code)
                    comments[key] = bool(reason)
    reported = [(f.path, f.line, f.rule) for f in findings]
    kept = [f for f, key in zip(findings, reported) if not comments.get(key)]
    complaints = []
    for key, has_reason in sorted(comments.items()):
        where = f"{key[0]}:{key[1]}: noqa for {key[2]}"
        if not has_reason:
            complaints.append(
                f"{where} states no reason and suppresses nothing; "
                f"write `noqa: {key[2]} - why this is safe`"
            )
        elif key not in reported:
            complaints.append(f"{where} matches no finding; remove it")
    return kept, len(findings) - len(kept), complaints
