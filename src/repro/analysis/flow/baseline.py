"""The committed suppression baseline for flow findings.

``analysis-baseline.json`` at the repo root records the few findings
that are *justified* — every entry must carry a written justification,
and the loader rejects entries without one.  Matching is by
``(rule, path, function)`` with ``"*"`` as a function wildcard (a whole
module is vouched for).  ``count`` caps how many findings one entry may
absorb (``null`` = unlimited, wildcard entries only).

Strict mode fails on *stale* entries too: a suppression that no longer
matches anything is debt — the hazard was fixed, so the entry must go.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.analysis.flow.findings import FlowFinding

BASELINE_FILENAME = "analysis-baseline.json"


def find_repo_root(start: Optional[Path] = None) -> Optional[Path]:
    """Walk up from ``start`` (default: the installed package) to the
    directory containing ``pyproject.toml``."""
    if start is None:
        import repro

        module_file = repro.__file__
        if module_file is None:
            return None
        start = Path(module_file).resolve().parent
    current = start.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


@dataclass
class BaselineEntry:
    """One justified suppression."""

    rule: str
    path: str
    #: Function qualname, or ``"*"`` to vouch for the whole file.
    function: str
    #: Max findings this entry absorbs; ``None`` = unlimited (wildcards).
    count: Optional[int]
    justification: str
    #: Findings absorbed during the current filter pass.
    used: int = 0

    def matches(self, finding: FlowFinding) -> bool:
        if self.rule != finding.rule or self.path != finding.path:
            return False
        if self.function != "*" and self.function != finding.function:
            return False
        return self.count is None or self.used < self.count


class Baseline:
    """The loaded suppression set."""

    def __init__(self, entries: list[BaselineEntry], path: Optional[Path]):
        self.entries = entries
        self.path = path

    @classmethod
    def empty(cls) -> "Baseline":
        return cls([], None)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        p = Path(path)
        raw = json.loads(p.read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or "suppressions" not in raw:
            raise ValueError(
                f"{p}: baseline must be an object with a 'suppressions' list"
            )
        entries: list[BaselineEntry] = []
        for i, item in enumerate(raw["suppressions"]):
            justification = str(item.get("justification", "")).strip()
            if not justification:
                raise ValueError(
                    f"{p}: suppression #{i} ({item.get('rule')}, "
                    f"{item.get('path')}) has no written justification — "
                    f"every baseline entry must say why it is safe"
                )
            count = item.get("count")
            entries.append(
                BaselineEntry(
                    rule=str(item["rule"]),
                    path=str(item["path"]),
                    function=str(item.get("function", "*")),
                    count=None if count is None else int(count),
                    justification=justification,
                )
            )
        return cls(entries, p)

    def filter(
        self, findings: list[FlowFinding]
    ) -> tuple[list[FlowFinding], list[FlowFinding], list[BaselineEntry]]:
        """Split findings into (unsuppressed, suppressed); also return the
        stale entries that matched nothing."""
        for entry in self.entries:
            entry.used = 0
        unsuppressed: list[FlowFinding] = []
        suppressed: list[FlowFinding] = []
        for finding in findings:
            entry = next(
                (e for e in self.entries if e.matches(finding)), None
            )
            if entry is None:
                unsuppressed.append(finding)
            else:
                entry.used += 1
                suppressed.append(finding)
        stale = [e for e in self.entries if e.used == 0]
        return unsuppressed, suppressed, stale


def update_baseline(
    findings: list[FlowFinding],
    path: Union[str, Path],
    previous: Optional[Baseline] = None,
) -> int:
    """Rewrite the baseline to cover exactly the current findings.

    Existing justifications are preserved where an entry still matches;
    new entries get a placeholder the loader will reject until a human
    writes the real reason.  Returns the number of entries written.
    """
    groups: dict[tuple[str, str, str], int] = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.function)
        groups[key] = groups.get(key, 0) + 1

    def _prior_justification(rule: str, fpath: str, function: str) -> str:
        if previous is None:
            return ""
        for entry in previous.entries:
            if entry.rule == rule and entry.path == fpath and (
                entry.function in (function, "*")
            ):
                return entry.justification
        return ""

    suppressions = []
    for (rule, fpath, function), count in sorted(groups.items()):
        justification = _prior_justification(rule, fpath, function) or (
            "TODO: write a justification or fix the finding"
        )
        suppressions.append(
            {
                "rule": rule,
                "path": fpath,
                "function": function,
                "count": count,
                "justification": justification,
            }
        )
    doc = {
        "_comment": (
            "Justified suppressions for `repro-analyze races|effects`. "
            "Every entry needs a real justification; strict mode fails on "
            "stale entries. See docs/static_analysis.md."
        ),
        "suppressions": suppressions,
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    return len(suppressions)
