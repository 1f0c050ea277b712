"""Lint driver: parse files, run every registered rule, honor ``noqa``.

The driver is rule-agnostic — all repo-specific logic lives in
:mod:`repro.analysis.rules`.  Findings on lines carrying a ``# noqa``
comment (bare, or naming the rule id) are suppressed, matching the
convention other linters use; the flow passes read the same comment
through :func:`parse_noqa` and additionally insist on a written reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.analysis.rules import LINT_RULES, LintContext, LintFinding

_NOQA_CODE = r"[A-Za-z]+[0-9]+"
_NOQA_RE = re.compile(
    rf"#\s*noqa\b(?::\s*(?P<codes>{_NOQA_CODE}(?:\s*,\s*{_NOQA_CODE})*))?"
    r"[\s:\-\u2013\u2014]*(?P<reason>.*)",
    re.IGNORECASE,
)


def parse_noqa(line: str) -> Optional[tuple[frozenset[str], str]]:
    """The ``# noqa`` comment on ``line`` as ``(rule codes, reason)``.

    Codes are comma-separated ``LETTERS+DIGITS`` tokens right after
    ``noqa:`` (none: a bare ``# noqa``); whatever follows them, with or
    without a dash, is the reason.  ``None`` when the line has no noqa.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = re.findall(_NOQA_CODE, match.group("codes") or "")
    return frozenset(c.upper() for c in codes), match.group("reason").strip()


def _suppressed(finding: LintFinding, lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    parsed = parse_noqa(lines[finding.line - 1])
    if parsed is None:
        return False
    codes = parsed[0]
    # A bare "# noqa" silences everything on the line.
    return not codes or finding.rule.upper() in codes


def _package_parts(path: Path) -> tuple[str, ...]:
    """Directory names between the file and the nearest package root.

    These are what rules dispatch on ("is this module under ``core/``?",
    "which layer does it sit in?").  Works both for the installed tree
    (``src/repro/core/x.py``) and for bare fixture trees in tests
    (``tmp/core/x.py``).
    """
    parts = path.resolve().parent.parts
    if "repro" in parts:
        parts = parts[parts.index("repro") + 1 :]
    elif "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        # Outside any known root: keep at most the last two directories so
        # fixture layouts like tmp123/core/bad.py still classify.
        parts = parts[-2:]
    return tuple(parts)


def lint_source(
    source: str, path: Union[str, Path] = "<string>"
) -> list[LintFinding]:
    """Lint one module's source text; syntax errors become findings."""
    path = Path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintFinding(
                rule="REPRO000",
                path=str(path),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = LintContext(path=str(path), packages=_package_parts(path))
    findings: list[LintFinding] = []
    for _name, rule in LINT_RULES.values():
        findings.extend(rule(tree, ctx))
    lines = source.splitlines()
    findings = [f for f in findings if not _suppressed(f, lines)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Union[str, Path]) -> list[LintFinding]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), path)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            found.update(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            found.add(entry)
    return sorted(found)


def lint_paths(
    paths: Iterable[Union[str, Path]], rules: Optional[set[str]] = None
) -> list[LintFinding]:
    """Lint every ``.py`` file under ``paths``; optionally filter rules."""
    findings: list[LintFinding] = []
    for path in iter_python_files(paths):
        for finding in lint_file(path):
            if rules is None or finding.rule in rules:
                findings.append(finding)
    return findings
