"""Lint driver: parse files, run every registered rule, honor ``noqa``.

The driver is rule-agnostic — all repo-specific logic lives in
:mod:`repro.analysis.rules`.  A finding is suppressed by a comment on the
reported line that names its rule *and says why*:
``# noqa: REPRO007 - degrade boundary``.  Only real comments are read
(``noqa`` quoted in a string or docstring is text), a bare ``# noqa`` or
one naming another linter's codes is not this driver's, and a ``REPROxxx``
noqa that states no reason or matches no finding is itself reported under
that rule id — the hazard was fixed, so the comment must go.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
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


def _honor_noqa(
    findings: list[LintFinding], source: str, path: str
) -> list[LintFinding]:
    """Drop the findings a reasoned ``noqa`` comment on their line vouches
    for; add one for every REPRO noqa with no reason or nothing to vouch for."""
    if "noqa" not in source:
        return findings
    #: (line, rule id) -> (column, stated reason) of every REPRO noqa
    comments: dict[tuple[int, str], tuple[int, str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        codes, reason = parse_noqa(token.string) or (frozenset(), "")
        for code in codes:
            if code.startswith("REPRO"):
                comments[token.start[0], code] = (token.start[1], reason)
    reported = {(f.line, f.rule) for f in findings}
    vouched = {key for key, (_, reason) in comments.items() if reason}
    kept = [f for f in findings if (f.line, f.rule) not in vouched]
    for (line, code), (col, reason) in comments.items():
        if not reason:
            problem = (
                f"noqa states no reason and suppresses nothing; write "
                f"'# noqa: {code} - why this is safe'"
            )
        elif (line, code) not in reported:
            problem = "noqa matches no finding; remove it"
        else:
            continue
        kept.append(LintFinding(code, path, line, col, problem))
    return kept


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
    findings = _honor_noqa(findings, source, str(path))
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
