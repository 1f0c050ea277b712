"""Unit tests: the repo-specific AST lint rules."""

from __future__ import annotations

import pytest

from repro.analysis.lint import lint_file, lint_paths, lint_source, parse_noqa


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class TestWallClockRule:
    """The former REPRO001 fixtures: wall-clock reads are REPRO110's."""

    def test_flags_time_calls_in_core(self):
        findings = lint_source(
            "import time\n\ndef f():\n    return time.time()\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}
        assert "wall-clock" in findings[0].message

    def test_flags_from_import(self):
        findings = lint_source(
            "from time import monotonic\n", "src/repro/executor/x.py"
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_flags_the_call_through_a_from_import_or_an_alias(self):
        findings = lint_source(
            "from time import monotonic as now\nimport time as t\n\n"
            "def f():\n    return now() + t.perf_counter()\n",
            "src/repro/core/speed.py",
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("REPRO110", 1), ("REPRO110", 5), ("REPRO110", 5),
        ]

    def test_flags_datetime_now(self):
        findings = lint_source(
            "import datetime\n\ndef f():\n    return datetime.datetime.now()\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_every_package_is_held_to_it(self):
        """No engine-core scope any more: a helper that reads the clock is
        reported where it reads it, whichever package it lives in."""
        source = "import time\n\ndef f():\n    return time.time()\n"
        for package in ("bench", "service", "obs", "estimators"):
            findings = lint_source(source, f"src/repro/{package}/x.py")
            assert rules_of(findings) == {"REPRO110"}
        assert lint_source(source, "tests/unit/test_x.py") == []

    def test_time_sleep_is_not_wall_clock(self):
        findings = lint_source(
            "import time\n\ndef f():\n    time.sleep(0)\n",
            "src/repro/core/x.py",
        )
        assert findings == []


class TestFloatEqualityRule:
    def test_flags_float_literal_equality(self):
        findings = lint_source("ok = x == 1.0\n", "src/repro/core/x.py")
        assert rules_of(findings) == {"REPRO002"}

    def test_flags_progress_name_inequality(self):
        findings = lint_source(
            "def f(fraction_done, y):\n    return fraction_done != y\n",
            "tools/x.py",
        )
        assert rules_of(findings) == {"REPRO002"}

    def test_integer_equality_is_fine(self):
        assert lint_source("ok = x == 1\n", "src/repro/core/x.py") == []

    def test_float_ordering_is_fine(self):
        assert lint_source("ok = x >= 1.0\n", "src/repro/core/x.py") == []


class TestMutableDefaultRule:
    def test_flags_list_dict_set_displays(self):
        findings = lint_source(
            "def f(a=[], b={}, c=set()):\n    return a, b, c\n", "x.py"
        )
        assert [f.rule for f in findings] == ["REPRO003"] * 3

    def test_flags_keyword_only_defaults(self):
        findings = lint_source("def f(*, a=[]):\n    return a\n", "x.py")
        assert rules_of(findings) == {"REPRO003"}

    def test_none_and_immutable_defaults_are_fine(self):
        assert lint_source(
            "def f(a=None, b=0, c=(), d='x'):\n    return a, b, c, d\n", "x.py"
        ) == []


class TestImportLayeringRule:
    def test_storage_must_not_import_executor(self):
        findings = lint_source(
            "from repro.executor.work import WorkTracker\n",
            "src/repro/storage/x.py",
        )
        assert rules_of(findings) == {"REPRO004"}

    def test_executor_must_not_import_core(self):
        findings = lint_source(
            "import repro.core.segments\n", "src/repro/executor/x.py"
        )
        assert rules_of(findings) == {"REPRO004"}

    def test_core_must_not_import_bench(self):
        findings = lint_source(
            "from repro import bench\n", "src/repro/core/x.py"
        )
        assert rules_of(findings) == {"REPRO004"}

    def test_downward_imports_allowed(self):
        assert lint_source(
            "from repro.executor.work import WorkTracker\n"
            "from repro.storage.page import Page\n",
            "src/repro/core/x.py",
        ) == []

    def test_unlayered_modules_exempt(self):
        assert lint_source(
            "from repro.core.segments import build_segments\n",
            "src/repro/analysis/x.py",
        ) == []


class TestAdhocLoggingRule:
    def test_flags_print_in_core(self):
        findings = lint_source(
            "def f(x):\n    print(x)\n", "src/repro/core/x.py"
        )
        assert rules_of(findings) == {"REPRO005"}
        assert "TraceBus" in findings[0].message

    def test_flags_logging_import_in_executor(self):
        findings = lint_source(
            "import logging\n", "src/repro/executor/x.py"
        )
        assert rules_of(findings) == {"REPRO005"}

    def test_flags_from_logging_import(self):
        findings = lint_source(
            "from logging import getLogger\n", "src/repro/core/x.py"
        )
        assert rules_of(findings) == {"REPRO005"}

    def test_flags_logging_calls(self):
        findings = lint_source(
            "def f():\n    logging.warning('x')\n", "src/repro/core/x.py"
        )
        assert rules_of(findings) == {"REPRO005"}

    def test_print_allowed_outside_the_engine(self):
        assert lint_source("print('ok')\n", "src/repro/bench/x.py") == []
        assert lint_source("print('ok')\n", "src/repro/obs/cli.py") == []

    def test_shipped_core_and_executor_are_silent(self, shipped_lint):
        assert "REPRO005" not in shipped_lint[1]


class TestBlanketExceptRule:
    def test_flags_bare_except_in_core(self):
        findings = lint_source(
            "try:\n    f()\nexcept:\n    pass\n", "src/repro/core/x.py"
        )
        assert rules_of(findings) == {"REPRO007"}

    def test_flags_except_exception(self):
        findings = lint_source(
            "try:\n    f()\nexcept Exception:\n    pass\n",
            "src/repro/executor/x.py",
        )
        assert rules_of(findings) == {"REPRO007"}

    def test_flags_except_base_exception_with_binding(self):
        findings = lint_source(
            "try:\n    f()\nexcept BaseException as exc:\n    raise\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO007"}

    def test_flags_blanket_inside_tuple(self):
        findings = lint_source(
            "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO007"}

    def test_flags_dotted_builtins_exception(self):
        findings = lint_source(
            "try:\n    f()\nexcept builtins.Exception:\n    pass\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO007"}

    def test_taxonomy_types_are_fine(self):
        src = (
            "from repro.errors import TransientIOError, StorageError\n"
            "try:\n    f()\nexcept (TransientIOError, StorageError):\n"
            "    pass\n"
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_concrete_stdlib_types_are_fine(self):
        assert lint_source(
            "try:\n    f()\nexcept (KeyError, StopIteration):\n    pass\n",
            "src/repro/executor/x.py",
        ) == []

    def test_other_packages_may_catch_broadly(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert lint_source(src, "src/repro/fault/x.py") == []
        assert lint_source(src, "tools/x.py") == []

    def test_noqa_marks_a_deliberate_boundary(self):
        src = (
            "try:\n    f()\n"
            "except Exception as exc:  # noqa: REPRO007 - degrade boundary\n"
            "    fallback(exc)\n"
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_shipped_core_and_executor_obey_the_taxonomy(self, shipped_lint):
        assert "REPRO007" not in shipped_lint[1]


class TestDriver:
    def test_noqa_suppresses(self):
        assert lint_source(
            "ok = x == 1.0  # noqa: REPRO002 - compared on purpose\n",
            "src/repro/core/x.py",
        ) == []

    def test_noqa_without_a_reason_suppresses_nothing_and_is_reported(self):
        findings = lint_source(
            "ok = x == 1.0  # noqa: REPRO002\n", "src/repro/core/x.py"
        )
        assert [f.rule for f in findings] == ["REPRO002", "REPRO002"]
        assert "exact equality" in findings[0].message
        assert "states no reason" in findings[1].message

    def test_bare_noqa_does_not_suppress(self):
        """A bare ``# noqa`` (or another linter's codes) is not this
        driver's: it neither suppresses a REPRO finding nor is policed."""
        for comment in ("# noqa", "# noqa: E731 - ruff's business"):
            findings = lint_source(f"ok = x == 1.0  {comment}\n", "x.py")
            assert [f.rule for f in findings] == ["REPRO002"]
        assert lint_source("ok = 1  # noqa\n", "x.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        findings = lint_source(
            "ok = x == 1.0  # noqa: REPRO003 - the wrong rule\n",
            "src/repro/core/x.py",
        )
        assert [(f.rule, "matches no finding" in f.message) for f in findings] == [
            ("REPRO002", False), ("REPRO003", True),
        ]

    def test_an_unused_noqa_is_reported(self):
        """The hazard was fixed, so the comment must go."""
        [finding] = lint_source(
            "ok = 1  # noqa: REPRO110 - was a clock read once\n",
            "src/repro/core/m.py",
        )
        assert finding.format().endswith(
            "core/m.py:1:8: REPRO110 noqa matches no finding; remove it"
        )

    def test_noqa_inside_a_string_is_text(self):
        """Only real comments count: the regex over the raw line that this
        replaced let the string below silence the mutable default."""
        findings = lint_source(
            'def f(a=[], b="# noqa: REPRO003 - quoted"):\n    return a, b\n'
            'def g():\n    """Write `# noqa: REPRO110 - why` to suppress."""\n',
            "x.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("REPRO003", 1)]

    @pytest.mark.parametrize(
        "comment, source",
        [
            ("# noqa: REPRO002 - compared on purpose", "ok = x == 1.0"),
            # the dash is optional
            ("# noqa: REPRO002 compared on purpose", "ok = x == 1.0"),
            (
                "# noqa: REPRO003, REPRO002 compared on purpose",
                "def f(a=[]): return a == 1.0",
            ),
        ],
    )
    def test_reason_words_are_not_read_as_rule_codes(self, comment, source):
        assert lint_source(f"{source}  {comment}\n", "src/repro/core/x.py") == []
        assert parse_noqa(comment)[1] == "compared on purpose"

    def test_parse_noqa_splits_codes_from_reason(self):
        assert parse_noqa("x = 1") is None
        assert parse_noqa("x  # noqa") == (frozenset(), "")
        assert parse_noqa("x  # noqa: E731") == (frozenset({"E731"}), "")
        assert parse_noqa("x  # noqa: repro110, REPRO007 - why") == (
            frozenset({"REPRO110", "REPRO007"}), "why",
        )

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def f(:\n", "x.py")
        assert rules_of(findings) == {"REPRO000"}

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import time\nt = time.time()\n")
        (pkg / "good.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert rules_of(findings) == {"REPRO110"}

    def test_lint_file_reads_disk(self, tmp_path):
        target = tmp_path / "core"
        target.mkdir()
        bad = target / "bad.py"
        bad.write_text("def f(a=[]):\n    return a\n")
        assert rules_of(lint_file(bad)) == {"REPRO003"}


class TestUnseededRandomRule:
    """The former REPRO008 fixtures: unseeded randomness is REPRO110's."""

    def test_flags_module_level_call(self):
        findings = lint_source(
            "import random\n\ndef f():\n    return random.randint(0, 9)\n",
            "src/repro/workloads/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_flags_zero_arg_random(self):
        findings = lint_source(
            "import random\n\nrng = random.Random()\n",
            "src/repro/core/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}
        assert "unseeded-random" in findings[0].message

    def test_seeded_random_is_fine(self):
        findings = lint_source(
            "import random\n\nrng = random.Random(42)\n",
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_flags_system_random_even_seeded(self):
        findings = lint_source(
            "import random\n\nrng = random.SystemRandom(1)\n",
            "src/repro/obs/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_flags_from_import_calls(self):
        findings = lint_source(
            "from random import randint\n\ndef f():\n    return randint(0, 9)\n",
            "src/repro/planner/x.py",
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_flags_global_seed(self):
        findings = lint_source(
            "import random\n\nrandom.seed(7)\n", "src/repro/obs/x.py"
        )
        assert rules_of(findings) == {"REPRO110"}

    def test_sim_and_fault_are_not_exempt(self):
        """They own randomness, always behind an explicit seed — which is
        what the rule asks of everyone."""
        source = "import random\n\ndef f():\n    return random.random()\n"
        for package in ("sim", "fault"):
            findings = lint_source(source, f"src/repro/{package}/x.py")
            assert rules_of(findings) == {"REPRO110"}
        seeded = "import random\n\ndef f(seed):\n    return random.Random(seed)\n"
        assert lint_source(seeded, "src/repro/fault/x.py") == []

    def test_tests_are_exempt(self):
        source = "import random\n\nv = random.random()\n"
        assert lint_source(source, "tests/unit/test_x.py") == []

    def test_unrelated_receiver_not_flagged(self):
        findings = lint_source(
            "def f(self):\n    return self.random.draw()\n",
            "src/repro/core/x.py",
        )
        assert findings == []


class TestHotLoopDispatchRule:
    """REPRO009: no per-row dispatch overhead in allowlisted hot loops."""

    HOT_PATH = "src/repro/executor/runtime.py"

    def test_flags_isinstance_in_hot_loop(self):
        findings = lint_source(
            "def run_query(items):\n"
            "    for item in items:\n"
            "        if isinstance(item, tuple):\n"
            "            pass\n",
            self.HOT_PATH,
        )
        assert rules_of(findings) == {"REPRO009"}
        assert "identity" in findings[0].message

    def test_flags_deep_attribute_chain_call(self):
        findings = lint_source(
            "def run_query(task, items):\n"
            "    for item in items:\n"
            "        task.rows.append(item)\n",
            self.HOT_PATH,
        )
        assert rules_of(findings) == {"REPRO009"}
        assert "hoist" in findings[0].message

    def test_hoisted_bound_method_is_fine(self):
        findings = lint_source(
            "def run_query(task, items):\n"
            "    append = task.rows.append\n"
            "    for item in items:\n"
            "        append(item)\n",
            self.HOT_PATH,
        )
        assert findings == []

    def test_identity_dispatch_is_fine(self):
        findings = lint_source(
            "def run_query(items, PULSE, Batch):\n"
            "    n = 0\n"
            "    for item in items:\n"
            "        if item is PULSE:\n"
            "            continue\n"
            "        if type(item) is Batch:\n"
            "            n += len(item.rows())\n",
            self.HOT_PATH,
        )
        assert findings == []

    def test_outside_hot_loop_not_flagged(self):
        # Same function name, not an allowlisted file: unchecked.
        findings = lint_source(
            "def run_query(items):\n"
            "    for item in items:\n"
            "        if isinstance(item, tuple):\n"
            "            pass\n",
            "src/repro/obs/x.py",
        )
        assert findings == []

    def test_code_before_the_loop_not_flagged(self):
        findings = lint_source(
            "def run_query(task, items):\n"
            "    if isinstance(task, str):\n"
            "        raise TypeError\n"
            "    for item in items:\n"
            "        pass\n",
            self.HOT_PATH,
        )
        assert findings == []

    def test_scheduler_slice_loop_is_allowlisted(self):
        findings = lint_source(
            "def _run_slice(self, task):\n"
            "    while True:\n"
            "        task.rows.extend(task.gen.fetch())\n",
            "src/repro/sched/scheduler.py",
        )
        assert rules_of(findings) == {"REPRO009"}

    def test_noqa_silences(self):
        findings = lint_source(
            "def run_query(items):\n"
            "    for item in items:\n"
            "        if isinstance(item, tuple):  # noqa: REPRO009 - cold\n"
            "            pass\n",
            self.HOT_PATH,
        )
        assert findings == []


class TestRawSchedulerRule:
    def test_flags_direct_construction(self):
        findings = lint_source(
            "from repro.sched.scheduler import CooperativeScheduler\n"
            "sched = CooperativeScheduler(db)\n",
            "src/repro/bench/x.py",
        )
        assert rules_of(findings) == {"REPRO011"}

    def test_flags_attribute_construction(self):
        findings = lint_source(
            "import repro.sched.scheduler as scheduler\n"
            "sched = scheduler.CooperativeScheduler(db, policy='fifo')\n",
            "tools/x.py",
        )
        assert rules_of(findings) == {"REPRO011"}

    def test_service_package_may_construct(self):
        assert lint_source(
            "sched = CooperativeScheduler(db)\n",
            "src/repro/service/service.py",
        ) == []

    def test_sched_package_may_construct(self):
        assert lint_source(
            "sched = CooperativeScheduler(db)\n",
            "src/repro/sched/scheduler.py",
        ) == []

    def test_tests_exempt(self):
        assert lint_source(
            "sched = CooperativeScheduler(db)\n",
            "tests/unit/test_sched_scheduler.py",
        ) == []

    def test_service_call_is_the_blessed_path(self):
        assert lint_source(
            "service = db.service()\nsched = service.scheduler\n",
            "src/repro/bench/x.py",
        ) == []


def test_shipped_tree_is_clean(shipped_lint):
    """The lint pass lands green on the repo's own source tree."""
    assert shipped_lint == (0, "no problems found\n")
