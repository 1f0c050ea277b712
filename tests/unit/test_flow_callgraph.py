"""Unit tests: call-graph construction and resolution (analysis.flow)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.flow.callgraph import CallGraph, build_callgraph

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def build_pkg(tmp_path: Path, modules: dict[str, str]) -> CallGraph:
    """Write ``modules`` (dotted name -> source) as a package and build
    its call graph."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("")
    for dotted, source in modules.items():
        parts = dotted.split(".")
        d = root
        for part in parts[:-1]:
            d = d / part
            d.mkdir(exist_ok=True)
            init = d / "__init__.py"
            if not init.exists():
                init.write_text("")
        (d / f"{parts[-1]}.py").write_text(source)
    return build_callgraph(root, package="pkg", receiver_types={})


class TestCollection:
    def test_functions_classes_and_methods(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "class C:\n"
            "    def m(self):\n"
            "        return 1\n"
            "def f():\n"
            "    return 2\n"
        )})
        assert "pkg.m.C.m" in g.functions
        assert "pkg.m.f" in g.functions
        assert "pkg.m.C" in g.classes
        assert g.classes["pkg.m.C"].methods == {"m": "pkg.m.C.m"}

    def test_nested_defs_get_locals_qualnames(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "def outer():\n"
            "    def inner():\n"
            "        yield 1\n"
            "    return inner\n"
        )})
        assert "pkg.m.outer.<locals>.inner" in g.functions
        assert g.functions["pkg.m.outer.<locals>.inner"].is_generator
        assert not g.functions["pkg.m.outer"].is_generator


class TestYieldLines:
    def test_yields_belong_to_the_frame_that_contains_them(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "def gen(rows):\n"
            "    def inner():\n"
            "        yield from rows\n"
            "    for row in inner():\n"
            "        yield row\n"
            "def plain(rows):\n"
            "    return list(rows)\n"
        )})
        outer = g.functions["pkg.m.gen"]
        inner = g.functions["pkg.m.gen.<locals>.inner"]
        assert (outer.is_generator, outer.yields) == (True, (5,))
        assert (inner.is_generator, inner.yields) == (True, (3,))
        assert not g.functions["pkg.m.plain"].is_generator


class TestResolution:
    def test_bare_name_same_module(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "def helper():\n"
            "    return 1\n"
            "def caller():\n"
            "    return helper()\n"
        )})
        assert g.callees("pkg.m.caller") == ["pkg.m.helper"]
        assert g.callers("pkg.m.helper") == ["pkg.m.caller"]

    def test_from_import_resolves_across_modules(self, tmp_path):
        g = build_pkg(tmp_path, {
            "a": "def shared():\n    return 1\n",
            "b": (
                "from pkg.a import shared\n"
                "def caller():\n"
                "    return shared()\n"
            ),
        })
        assert g.callees("pkg.b.caller") == ["pkg.a.shared"]

    def test_self_method_resolves_through_bases(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "class Base:\n"
            "    def step(self):\n"
            "        return 0\n"
            "class Sub(Base):\n"
            "    def run(self):\n"
            "        return self.step()\n"
        )})
        assert g.callees("pkg.m.Sub.run") == ["pkg.m.Base.step"]

    def test_constructor_resolves_to_init(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "def make():\n"
            "    return C()\n"
        )})
        assert g.callees("pkg.m.make") == ["pkg.m.C.__init__"]

    def test_single_hierarchy_virtual_dispatch_fans_out(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "class Op:\n"
            "    def rows(self):\n"
            "        raise NotImplementedError\n"
            "class A(Op):\n"
            "    def rows(self):\n"
            "        return []\n"
            "class B(Op):\n"
            "    def rows(self):\n"
            "        return []\n"
            "def drive(op):\n"
            "    return op.rows()\n"
        )})
        assert g.callees("pkg.m.drive") == [
            "pkg.m.A.rows", "pkg.m.B.rows", "pkg.m.Op.rows",
        ]

    def test_generic_method_names_do_not_capture(self, tmp_path):
        # ``append`` is defined on exactly one class in the tree, but it
        # collides with list.append — an unknown receiver must not bind.
        g = build_pkg(tmp_path, {"m": (
            "class Sink:\n"
            "    def append(self, x):\n"
            "        pass\n"
            "def caller(buf):\n"
            "    buf.append(1)\n"
        )})
        assert g.callees("pkg.m.caller") == []

    def test_unresolved_calls_produce_no_edge(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "import json\n"
            "def caller(x):\n"
            "    return json.dumps(x)\n"
        )})
        assert g.callees("pkg.m.caller") == []


class TestWitnesses:
    def test_witness_to_root_walks_callers(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "def leaf():\n"
            "    return 1\n"
            "def mid():\n"
            "    return leaf()\n"
            "def entry():\n"
            "    return mid()\n"
        )})
        assert g.witness_to_root("pkg.m.leaf") == (
            "pkg.m.entry", "pkg.m.mid", "pkg.m.leaf",
        )

    def test_witness_forward_reaches_goal(self, tmp_path):
        g = build_pkg(tmp_path, {"m": (
            "def leaf():\n"
            "    return 1\n"
            "def mid():\n"
            "    return leaf()\n"
            "def entry():\n"
            "    return mid()\n"
        )})
        assert g.witness_forward(
            "pkg.m.entry", frozenset({"pkg.m.leaf"})
        ) == ("pkg.m.entry", "pkg.m.mid", "pkg.m.leaf")


class TestRealTree:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_callgraph(REPO_SRC / "repro")

    def test_covers_the_whole_tree(self, graph):
        assert len(graph.functions) > 500
        assert len(graph.classes) > 100

    def test_operator_dispatch_fans_out(self, graph):
        rows_defs = [
            q for q in graph.functions if q.endswith("Op.rows")
        ]
        assert len(rows_defs) >= 8

    def test_pull_resolves_from_merge_join(self, graph):
        assert "repro.executor.base.pull" in graph.callees(
            "repro.executor.merge_join.MergeJoinOp.rows"
        )
