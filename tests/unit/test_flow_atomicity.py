"""Unit tests: yield-point atomicity hazards (REPRO100, REPRO102) — per-file
lint rules over the shared-state ownership registry."""

from __future__ import annotations

from repro.analysis.lint import lint_source


def lint_module(modules: dict[str, str]):
    """Lint each source as the module ``repro.<dotted name>``: the path is
    what lets a synthetic class land in a registry-owner module like
    ``repro.storage.buffer``."""
    findings = []
    for dotted, source in modules.items():
        findings += lint_source(source, f"src/repro/{dotted.replace('.', '/')}.py")
    return findings


def rules_of(findings):
    return {f.rule for f in findings}


class TestUnmediatedStores:
    def test_store_through_registered_alias_is_flagged(self):
        findings = lint_module({"util.m": (
            "def f(pool):\n"
            "    pool.hits = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}
        assert "BufferPool.hits" in findings[0].message

    def test_nested_receiver_chain_is_flagged(self):
        findings = lint_module({"util.m": (
            "class Runner:\n"
            "    def go(self):\n"
            "        self.db.disk.seq_reads = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}
        assert "SimulatedDisk.seq_reads" in findings[0].message

    def test_augmented_store_is_still_unmediated(self):
        findings = lint_module({"util.m": (
            "def f(clock):\n"
            "    clock.cost_charged += 1\n"
        )})
        assert rules_of(findings) == {"REPRO100"}

    def test_owner_frame_is_exempt(self):
        findings = lint_module({"storage.buffer": (
            "class BufferPool:\n"
            "    def absorb(self, pool):\n"
            "        pool.hits = 0\n"
        )})
        assert findings == []

    def test_same_store_outside_owner_module_is_not_exempt(self):
        findings = lint_module({"util.m": (
            "class BufferPool:\n"  # name collision is not ownership
            "    def absorb(self, pool):\n"
            "        pool.hits = 0\n"
        )})
        assert rules_of(findings) == {"REPRO100"}

    def test_unregistered_attr_is_ignored(self):
        findings = lint_module({"util.m": (
            "def f(pool):\n"
            "    pool.nickname = 'x'\n"
        )})
        assert findings == []

    def test_load_alone_is_not_a_store(self):
        findings = lint_module({"util.m": (
            "def f(pool):\n"
            "    return pool.hits\n"
        )})
        assert findings == []


class TestRmwAcrossYield:
    """The former REPRO101 fixtures.  A stale read-modify-write needs a
    store through a registered alias, and outside the owner's own frames
    that store is a REPRO100 wherever the yield sits — so the rule retired
    into it (and, inside a generator method of the owner, into REPRO102).
    Every shape below, hazardous or harmless under the old rule, is the
    same defect with the same fix: go through the owner."""

    def test_stale_read_modify_write_is_flagged(self):
        findings = lint_module({"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield 1\n"
            "    pool.hits = h + 1\n"
        )})
        [f] = findings
        assert (f.rule, f.line) == ("REPRO100", 4)
        assert "BufferPool.hits" in f.message

    def test_stale_read_modify_write_inside_the_owner_is_flagged(self):
        findings = lint_module({"storage.buffer": (
            "class BufferPool:\n"
            "    def drain(self):\n"
            "        h = self.hits\n"
            "        yield 1\n"
            "        self.hits = h + 1\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO102", 2)]

    def test_reload_after_yield_revalidates(self):
        findings = lint_module({"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield 1\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO100", 5)]

    def test_augmented_assignment_is_rmw_safe(self):
        findings = lint_module({"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    yield h\n"
            "    pool.hits += 1\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO100", 4)]

    def test_plain_function_cannot_suspend(self):
        findings = lint_module({"util.m": (
            "def bump(pool):\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO100", 3)]

    def test_store_before_yield_is_fine(self):
        findings = lint_module({"util.m": (
            "def drain(pool):\n"
            "    h = pool.hits\n"
            "    pool.hits = h + 1\n"
            "    yield 1\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [("REPRO100", 3)]


class TestYieldInOwner:
    def test_owner_generator_storing_registered_state(self):
        findings = lint_module({"storage.buffer": (
            "class BufferPool:\n"
            "    def drain(self):\n"
            "        self.hits = 0\n"
            "        yield 1\n"
        )})
        assert rules_of(findings) == {"REPRO102"}
        assert "BufferPool" in findings[0].message

    def test_atomic_owner_method_is_fine(self):
        findings = lint_module({"storage.buffer": (
            "class BufferPool:\n"
            "    def reset(self):\n"
            "        self.hits = 0\n"
        )})
        assert findings == []

    def test_owner_generator_touching_unregistered_state(self):
        findings = lint_module({"storage.buffer": (
            "class BufferPool:\n"
            "    def walk(self):\n"
            "        self.cursor = 0\n"
            "        yield 1\n"
        )})
        assert findings == []


class TestFindingShape:
    def test_findings_sort_by_path_then_line(self):
        findings = lint_module({"util.m": (
            "def b(pool):\n"
            "    pool.hits = 0\n"
            "def a(clock):\n"
            "    clock.now = 0.0\n"
        )})
        assert [f.line for f in findings] == [2, 4]
        assert findings[0].format().endswith(
            "util/m.py:2:4: REPRO100 unmediated store to shared BufferPool.hits "
            "(via 'pool') from outside its owner; use the owner's mediating API"
        )

    def test_every_store_form_is_seen(self):
        findings = lint_module({"util.m": (
            "def f(pool, disk, clock, bus):\n"
            "    pool.hits, disk.writes = 0, 0\n"
            "    del clock._tickers[3]\n"
            "    bus.events: list = []\n"
            "    g = lambda: pool.misses\n"
        )})
        assert [(f.rule, f.line) for f in findings] == [
            ("REPRO100", 2), ("REPRO100", 2), ("REPRO100", 3), ("REPRO100", 4),
        ]


def test_shipped_tree_has_no_atomicity_hazards(shipped_lint):
    """The merge gate: the engine's own tree is race-clean."""
    assert "REPRO10" not in shipped_lint[1]
    assert shipped_lint[0] == 0
