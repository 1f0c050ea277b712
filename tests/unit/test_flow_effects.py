"""Unit tests: the determinism rules (REPRO110, REPRO111) — per-file lint
rules; REPRO110 is frame-local over every module outside test code."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.lint import lint_source

from tests.unit.test_flow_atomicity import lint_module, rules_of

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestOwnSources:
    def test_wall_clock_in_core_is_flagged(self):
        findings = lint_module({"core.m": (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "wall-clock" in findings[0].message

    def test_module_level_random_is_flagged(self):
        findings = lint_module({"executor.m": (
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "unseeded-random" in findings[0].message

    def test_unseeded_random_instance_is_flagged(self):
        findings = lint_module({"core.m": (
            "import random\n"
            "def f():\n"
            "    return random.Random()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}

    def test_seeded_random_instance_is_fine(self):
        findings = lint_module({"core.m": (
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed)\n"
        )})
        assert findings == []

    def test_environment_read_is_flagged(self):
        findings = lint_module({"core.m": (
            "import os\n"
            "def f():\n"
            "    return os.environ.get('X')\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "environment" in findings[0].message

    def test_builtin_hash_is_flagged(self):
        findings = lint_module({"executor.m": (
            "def f(key):\n"
            "    return hash(key)\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "salted-hash" in findings[0].message

    def test_threading_is_flagged(self):
        findings = lint_module({"core.m": (
            "import threading\n"
            "def f():\n"
            "    return threading.get_ident()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "threading" in findings[0].message

    def test_dynamic_import_is_flagged(self):
        """``__import__("os").environ`` would escape the name match, so a
        module reached by string is itself the finding."""
        findings = lint_module({"core.m": (
            "import importlib\n"
            "def f():\n"
            "    return __import__('os').environ\n"
            "def g():\n"
            "    return importlib.import_module('time').time()\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [
            ("REPRO110", 3), ("REPRO110", 5),
        ]
        assert all("dynamic-import" in f.message for f in findings)

    def test_hash_protocol_frames_are_exempt(self):
        findings = lint_module({"storage.m": (
            "class Column:\n"
            "    def __hash__(self):\n"
            "        return hash((self.name, self.type))\n"
            "    def bucket(self, n):\n"
            "        return hash(self.name) % n\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO110", 5)]

    def test_outside_enforced_scope_is_ignored(self):
        """Test code is the one place the host may show through."""
        source = "import time\ndef f():\n    return time.time()\n"
        assert lint_source(source, "tests/unit/test_m.py") == []
        assert lint_source(source, "tests/helpers.py") == []


class TestTransitiveReach:
    """There is no call graph: what used to be reported at the function
    where nondeterminism entered ``core/``/``executor/`` is reported at
    the helper's own read, because every package is in scope."""

    def test_reaching_nondeterminism_through_a_helper(self):
        findings = lint_module({
            "util.helper": (
                "import os\n"
                "def chunk_rows():\n"
                "    return int(os.environ.get('CHUNK', 64))\n"
            ),
            "core.m": (
                "from repro.util.helper import chunk_rows\n"
                "def f():\n"
                "    return chunk_rows()\n"
            ),
        })
        [f] = findings
        assert (f.rule, f.line) == ("REPRO110", 3)
        assert f.path.endswith("util/helper.py")
        assert "environment (os.environ)" in f.message

    def test_reported_once_at_the_boundary(self):
        # Only the frame that reads the clock is reported, not its callers.
        findings = lint_module({"core.m": (
            "import time\n"
            "def inner():\n"
            "    return time.time()\n"
            "def outer():\n"
            "    return inner()\n"
        )})
        assert [f.line for f in findings] == [3]

    def test_pure_call_chain_is_clean(self):
        findings = lint_module({"core.m": (
            "def inner(x):\n"
            "    return x + 1\n"
            "def outer(x):\n"
            "    return inner(x)\n"
        )})
        assert findings == []


class TestSetIterationOrder:
    def test_for_over_set_literal(self):
        findings = lint_module({"core.m": (
            "def f():\n"
            "    out = []\n"
            "    for x in {1, 2, 3}:\n"
            "        out.append(x)\n"
            "    return out\n"
        )})
        assert rules_of(findings) == {"REPRO111"}

    def test_comprehension_over_set_local(self):
        findings = lint_module({"executor.m": (
            "def f(rows):\n"
            "    keys = set(rows)\n"
            "    return [k for k in keys]\n"
        )})
        assert rules_of(findings) == {"REPRO111"}

    def test_sorted_set_is_fine(self):
        findings = lint_module({"core.m": (
            "def f(rows):\n"
            "    keys = set(rows)\n"
            "    return [k for k in sorted(keys)]\n"
        )})
        assert findings == []

    def test_set_membership_without_iteration_is_fine(self):
        findings = lint_module({"core.m": (
            "def f(rows, keys):\n"
            "    seen = set(keys)\n"
            "    return [r for r in rows if r in seen]\n"
        )})
        assert findings == []

    def test_outside_enforced_scope_is_ignored(self):
        findings = lint_module({"bench.m": (
            "def f():\n"
            "    return [x for x in {1, 2}]\n"
        )})
        assert findings == []


def suppressed(body: str):
    """Lint a one-module fixture whose ``f`` reads the wall clock on line 3;
    ``body`` is that line with its comment."""
    return lint_source(f"import time\ndef f():\n{body}\n", "src/repro/core/m.py")


class TestNoqaSuppression:
    def test_a_reasoned_noqa_on_the_line_suppresses(self):
        assert suppressed(
            "    return time.time()  # noqa: REPRO110 - measured on purpose"
        ) == []

    def test_a_noqa_without_a_reason_suppresses_nothing(self):
        kept, complaint = suppressed("    return time.time()  # noqa: REPRO110")
        assert "wall-clock" in kept.message
        assert "states no reason" in complaint.message

    def test_bare_and_foreign_noqa_do_not_suppress(self):
        for comment in ("# noqa", "# noqa: S102 - another linter's rule"):
            [kept] = suppressed(f"    return time.time()  {comment}")
            assert kept.rule == "REPRO110" and "wall-clock" in kept.message

    def test_an_unused_noqa_is_a_complaint(self):
        [complaint] = suppressed(
            "    return 1  # noqa: REPRO110 - was a clock read once"
        )
        assert complaint.format().endswith(
            "core/m.py:3:14: REPRO110 noqa matches no finding; remove it"
        )

    def test_only_comments_count_and_only_this_pass_family(self):
        """A noqa quoted in a string is text; one for a retired id is
        reported like any other that matches nothing."""
        findings = suppressed(
            "    '# noqa: REPRO110 - quoted in a string'; "
            "return time.time()  # noqa: REPRO001 - the retired id"
        )
        assert [(f.rule, "matches no finding" in f.message) for f in findings] == [
            ("REPRO110", False), ("REPRO001", True),
        ]


class TestShippedTree:
    def test_every_finding_is_noqa_suppressed(self, shipped_lint):
        """The merge gate: ``lint`` lands green because each of the four real
        sources carries a written justification where it is — a noqa that
        matched no finding, or stated no reason, would itself be reported."""
        assert shipped_lint == (0, "no problems found\n")
        sites = sorted(
            path.relative_to(REPO_ROOT / "src" / "repro").as_posix()
            for path in (REPO_ROOT / "src").rglob("*.py")
            for line in path.read_text().splitlines()
            if re.search(r"#\s*noqa: REPRO110 - \w", line)
        )
        assert sites == [
            "analysis/gate.py",  # REPRO_VERIFY
            "fault/__main__.py",  # --random draws a fresh seed
            "obs/__init__.py",  # REPRO_TRACE, on or off
            "obs/__init__.py",  # REPRO_TRACE, as an artifact directory
        ]
