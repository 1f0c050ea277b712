"""Unit tests: determinism-effect checker (REPRO110/111)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.flow.callgraph import build_callgraph
from repro.analysis.flow.effects import analyze_effects
from repro.analysis.flow.findings import apply_noqa

from tests.unit.test_flow_atomicity import build_repro_pkg, rules_of

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"


def effects(tmp_path, modules):
    return analyze_effects(build_repro_pkg(tmp_path, modules))


class TestOwnSources:
    def test_wall_clock_in_core_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "wall-clock" in findings[0].message

    def test_module_level_random_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"executor.m": (
            "import random\n"
            "def f():\n"
            "    return random.random()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "unseeded-random" in findings[0].message

    def test_unseeded_random_instance_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "import random\n"
            "def f():\n"
            "    return random.Random()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}

    def test_seeded_random_instance_is_fine(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "import random\n"
            "def f(seed):\n"
            "    return random.Random(seed)\n"
        )})
        assert findings == []

    def test_environment_read_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "import os\n"
            "def f():\n"
            "    return os.environ.get('X')\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "environment" in findings[0].message

    def test_builtin_hash_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"executor.m": (
            "def f(key):\n"
            "    return hash(key)\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "salted-hash" in findings[0].message

    def test_threading_is_flagged(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "import threading\n"
            "def f():\n"
            "    return threading.get_ident()\n"
        )})
        assert rules_of(findings) == {"REPRO110"}
        assert "threading" in findings[0].message

    def test_outside_enforced_scope_is_ignored(self, tmp_path):
        findings = effects(tmp_path, {"bench.m": (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )})
        assert findings == []


class TestTransitiveReach:
    def test_reaching_nondeterminism_through_a_helper(self, tmp_path):
        findings = effects(tmp_path, {
            "util.helper": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"
            ),
            "core.m": (
                "from repro.util.helper import now\n"
                "def f():\n"
                "    return now()\n"
            ),
        })
        assert rules_of(findings) == {"REPRO110"}
        [f] = findings
        assert f.function == "repro.core.m.f"
        assert "transitively reaches" in f.message
        assert "repro.util.helper.now" in f.message
        assert f.witness == ("repro.core.m.f", "repro.util.helper.now")

    def test_reported_once_at_the_boundary(self, tmp_path):
        # When the impure callee is itself enforced, only the callee is
        # reported — the caller's path is covered by that finding.
        findings = effects(tmp_path, {"core.m": (
            "import time\n"
            "def inner():\n"
            "    return time.time()\n"
            "def outer():\n"
            "    return inner()\n"
        )})
        assert [f.function for f in findings] == ["repro.core.m.inner"]

    def test_pure_call_chain_is_clean(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "def inner(x):\n"
            "    return x + 1\n"
            "def outer(x):\n"
            "    return inner(x)\n"
        )})
        assert findings == []


class TestSetIterationOrder:
    def test_for_over_set_literal(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "def f():\n"
            "    out = []\n"
            "    for x in {1, 2, 3}:\n"
            "        out.append(x)\n"
            "    return out\n"
        )})
        assert rules_of(findings) == {"REPRO111"}

    def test_comprehension_over_set_local(self, tmp_path):
        findings = effects(tmp_path, {"executor.m": (
            "def f(rows):\n"
            "    keys = set(rows)\n"
            "    return [k for k in keys]\n"
        )})
        assert rules_of(findings) == {"REPRO111"}

    def test_sorted_set_is_fine(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "def f(rows):\n"
            "    keys = set(rows)\n"
            "    return [k for k in sorted(keys)]\n"
        )})
        assert findings == []

    def test_set_membership_without_iteration_is_fine(self, tmp_path):
        findings = effects(tmp_path, {"core.m": (
            "def f(rows, keys):\n"
            "    seen = set(keys)\n"
            "    return [r for r in rows if r in seen]\n"
        )})
        assert findings == []

    def test_outside_enforced_scope_is_ignored(self, tmp_path):
        findings = effects(tmp_path, {"bench.m": (
            "def f():\n"
            "    return [x for x in {1, 2}]\n"
        )})
        assert findings == []


def suppressed(tmp_path, body: str):
    """``apply_noqa`` over a one-module fixture whose ``f`` reads the wall
    clock on line 3; ``body`` is that line with its comment."""
    graph = build_repro_pkg(tmp_path, {"core.m": (
        "import time\n"
        "def f():\n"
        f"{body}\n"
    )})
    return apply_noqa(analyze_effects(graph), graph, None, "REPRO11")


class TestNoqaSuppression:
    def test_a_reasoned_noqa_on_the_line_suppresses(self, tmp_path):
        kept, dropped, complaints = suppressed(
            tmp_path, "    return time.time()  # noqa: REPRO110 - measured on purpose"
        )
        assert (kept, dropped, complaints) == ([], 1, [])

    def test_a_noqa_without_a_reason_suppresses_nothing(self, tmp_path):
        kept, dropped, complaints = suppressed(
            tmp_path, "    return time.time()  # noqa: REPRO110"
        )
        assert rules_of(kept) == {"REPRO110"} and dropped == 0
        assert len(complaints) == 1 and "states no reason" in complaints[0]

    def test_bare_and_foreign_noqa_do_not_suppress(self, tmp_path):
        for comment in ("# noqa", "# noqa: REPRO001 - lint's rule, not this one"):
            kept, dropped, complaints = suppressed(
                tmp_path, f"    return time.time()  {comment}"
            )
            assert rules_of(kept) == {"REPRO110"} and not complaints

    def test_an_unused_noqa_is_a_complaint(self, tmp_path):
        kept, dropped, complaints = suppressed(
            tmp_path, "    return 1  # noqa: REPRO110 - was a clock read once"
        )
        assert kept == [] and dropped == 0
        assert len(complaints) == 1 and "matches no finding" in complaints[0]
        assert complaints[0].endswith("core/m.py:3: noqa for REPRO110 "
                                      "matches no finding; remove it")

    def test_only_comments_count_and_only_this_pass_family(self, tmp_path):
        kept, dropped, complaints = suppressed(
            tmp_path,
            "    '# noqa: REPRO110 - quoted in a string'; "
            "return 1  # noqa: REPRO100 - the races pass polices this one",
        )
        assert (kept, dropped, complaints) == ([], 0, [])


class TestShippedTree:
    def test_every_finding_is_noqa_suppressed(self):
        """The merge gate: ``effects --strict`` lands green because the one
        remaining REPRO110 carries a written justification where it is."""
        graph = build_callgraph(REPO_SRC / "repro")
        findings = analyze_effects(graph, REPO_ROOT)
        assert findings, "the indicator's REPRO_VERIFY env read should show"
        assert rules_of(findings) == {"REPRO110"}
        kept, dropped, complaints = apply_noqa(findings, graph, REPO_ROOT, "REPRO11")
        assert (kept, dropped, complaints) == ([], len(findings), [])
