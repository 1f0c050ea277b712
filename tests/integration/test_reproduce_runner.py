"""Integration: the reproduction runner, ``python -m repro reproduce``.

The summary and the claims read the committed documents, so nothing here
executes a query except one in-process recomputation of the cheapest
entry (Table 1), which every ``--check``/``--write`` case below reuses.
The full recomputation is CI's ``reproduce`` job.
"""

import json
import shutil

import pytest

from repro.__main__ import main
from repro.bench import experiments

FIGURE_ENTRIES = [e for e in experiments.ENTRIES if e.anchor.startswith("Fig")]
TABLE1 = experiments.BY_NAME["table1_data_set"]


@pytest.fixture(scope="module")
def docs():
    return experiments.load()


@pytest.fixture(scope="module")
def table1_bytes():
    return experiments.compute(TABLE1)


@pytest.fixture
def results_copy(tmp_path, table1_bytes, monkeypatch):
    """A copy of the committed results; ``compute`` serves Table 1's
    already computed bytes."""
    shutil.copytree(experiments.RESULTS_DIR, tmp_path, dirs_exist_ok=True)
    monkeypatch.setattr(experiments, "compute", lambda entry: table1_bytes)
    return tmp_path


def _edit_orders(results_dir, tuples):
    path = results_dir / "table1_data_set.json"
    doc = json.loads(path.read_text())
    doc["meta"]["relations"]["orders"]["tuples"] = tuples
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class TestRunAll:
    def test_all_seven_experiments_run(self):
        assert [e.name for e in FIGURE_ENTRIES] == [
            "q1_unloaded",
            "q2_unloaded",
            "q2_io_interference",
            "q3_correlation",
            "q4_two_errors",
            "q5_unloaded",
            "q5_cpu_interference",
        ]

    def test_every_figure_covered(self):
        figures = " ".join(e.anchor for e in FIGURE_ENTRIES)
        for fig in ("4-7", "9-12", "13-16", "17", "18", "19", "20"):
            assert fig in figures
        owned = {name for e in experiments.ENTRIES for name in e.files}
        # Figure 8 is Q2's plan, drawn in tests/integration/test_figure3_plan.py.
        assert {int(n[3:5]) for n in owned if n.startswith("fig")} == (
            set(range(4, 21)) - {8}
        )

    def test_indicator_beats_optimizer_everywhere(self, docs):
        # The paper's headline: on every experiment, the refined
        # indicator's remaining-time error is below the baseline's.
        for entry in FIGURE_ENTRIES:
            run = experiments.Run(docs[entry.name])
            ind, opt = run.indicator_error(), run.optimizer_error()
            assert ind is not None and opt is not None
            # Strictly better wherever the baseline is meaningfully wrong.
            assert ind <= opt, entry.name
            if opt > 1.0:
                assert ind < opt, entry.name

    def test_interference_runs_are_stretched(self, docs):
        def elapsed(name):
            return docs[name]["scalars"]["total_elapsed_s"]

        assert elapsed("q2_io_interference") > 1.2 * elapsed("q2_unloaded")
        assert elapsed("q5_cpu_interference") > 1.2 * elapsed("q5_unloaded")

    def test_cost_estimates_converge(self, docs):
        for entry in FIGURE_ENTRIES:
            assert experiments.Run(docs[entry.name]).convergence() is not None

    def test_summary_renders_every_row(self):
        text = experiments.summary()
        for entry in FIGURE_ENTRIES:
            assert entry.name in text
        assert "err ind" in text


class TestCliReproduce:
    def test_cli_subcommand(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "Reproduction summary" in out
        assert "q5_cpu_interference" in out

    @pytest.mark.parametrize(
        "argv", [["--check", "--write"], ["--scale", "0.01"], ["--work-mem", "8"]]
    )
    def test_two_exclusive_flags_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", *argv])
        assert exc.value.code == 2


class TestCheck:
    def test_table1_recomputes_byte_for_byte(self, table1_bytes):
        for name, text in table1_bytes.items():
            assert (experiments.RESULTS_DIR / name).read_text() == text, name

    def test_an_edited_number_is_named(self, results_copy):
        _edit_orders(results_copy, 15_001)
        lines = []
        assert experiments.check(results_copy, [TABLE1], out=lines.append) == 1
        assert (
            "table1_data_set.json: meta.relations.orders.tuples: "
            "committed 15001 != computed 15000" in "\n".join(lines)
        )

    def test_an_edited_figure_line_is_named(self, results_copy):
        path = results_copy / "table1_data_set.txt"
        path.write_text(path.read_text().replace("60000", "60001"))
        lines = []
        assert experiments.check(results_copy, [TABLE1], out=lines.append) == 1
        assert "table1_data_set.txt: line 6: committed 'lineitem " in "\n".join(lines)

    def test_clean_copy_passes(self, results_copy):
        lines = []
        assert experiments.check(results_copy, [TABLE1], out=lines.append) == 0
        assert lines[-1] == "reproduce --check: 2 of 2 files match"


class TestWriteTally:
    def test_a_broken_claim_is_reported(self, results_copy):
        _edit_orders(results_copy, 15_001)
        rows = experiments.tally(results_copy)
        broken = [claim for _, claim, verdict in rows if verdict == "broken"]
        assert broken == ["ten_orders_per_customer", "four_lineitems_per_order"]
        lines = []
        assert experiments.report(rows, out=lines.append) == 1
        assert lines[-1].startswith("| broken | 2 |")

    def test_write_restores_and_tallies_moved(self, results_copy):
        _edit_orders(results_copy, 15_001)
        lines = []
        assert experiments.write(results_copy, [TABLE1], out=lines.append) == 0
        assert "wrote table1_data_set.json" in lines
        assert "  moved  table1_data_set: ten_orders_per_customer" in lines
        name = "table1_data_set.json"
        committed = (experiments.RESULTS_DIR / name).read_text()
        assert (results_copy / name).read_text() == committed

    def test_unchanged_files_hold(self):
        rows = experiments.tally(entries=[TABLE1])
        assert {verdict for *_, verdict in rows} == {"held"}


class TestResultsDirectory:
    def test_every_committed_result_is_owned(self):
        owned = [name for e in experiments.ENTRIES for name in e.files]
        assert len(owned) == len(set(owned)) == 50
        present = {p.name for p in experiments.RESULTS_DIR.iterdir()}
        assert present == set(owned)

    def test_documents_carry_no_python_minor(self, docs):
        # Every float reduction is math.fsum: the bytes do not depend on
        # the interpreter that wrote them.
        assert len(docs) == len(experiments.ENTRIES)
        assert not any("python" in doc.get("meta", {}) for doc in docs.values())
