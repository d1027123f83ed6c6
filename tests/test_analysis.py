"""Tests for the analysis/reporting layer (tables, figures, reports)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.figures import (
    floorplan_ascii,
    floorplan_svg,
    layout_svg,
    render_control_sequence,
    render_layout_ascii,
)
from repro.analysis.report import ExperimentRecord, render_experiments_markdown
from repro.analysis.tables import (
    _build_table3,
    render_table1,
    render_table3,
    render_text_table,
    table1_rows,
)
from repro.cells.control import proposed_restore_schedule, standard_store_schedule
from repro.core.merge import find_mergeable_pairs
from repro.errors import AnalysisError
from repro.layout.cell_layout import plan_proposed_2bit


class TestTextTable:
    def test_alignment(self):
        text = render_text_table(("a", "bbbb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        text = render_text_table(("x",), [("1",)], title="My Table")
        assert text.startswith("My Table")

    def test_rejects_ragged_rows(self):
        with pytest.raises(AnalysisError):
            render_text_table(("a", "b"), [("only",)])


class TestTable1:
    def test_rows_cover_paper_parameters(self):
        rows = dict(table1_rows())
        assert rows["MTJ radius"] == "20 nm"
        assert rows["TMR @ 0V"] == "123%"
        assert rows["Critical current"] == "37 uA"
        assert rows["Switching current"] == "70 uA"
        assert "1.26" in rows["RA"]

    def test_derived_resistances_near_paper(self):
        rows = dict(table1_rows())
        # 11.2/5.0 kΩ from R_P(1+TMR) — paper rounds to 11/5.
        assert rows["'AP'/'P' resistance"].startswith("11.")
        assert "5.0 kOhm" in rows["'AP'/'P' resistance"]

    def test_render_contains_header(self):
        assert "Table I" in render_table1()


class TestTable3:
    def test_build_and_render_small(self):
        results = _build_table3(["s344"])
        text = render_table3(results)
        assert "s344" in text
        assert "AVERAGE" in text
        assert "paper 26%" in text

    def test_row_contains_paper_comparison(self):
        results = _build_table3(["s344"])
        text = render_table3(results)
        # our/paper columns render both values.
        assert "/ 5" in text or "/5" in text.replace(" ", "")


class TestControlSequenceFigure:
    def test_render_proposed_restore(self):
        schedule = proposed_restore_schedule()
        text = render_control_sequence(schedule)
        assert "evaluate-lower0" in text
        assert "pcv_b" in text and "pcg" in text
        assert "▔" in text and "▁" in text

    def test_render_selected_signals_only(self):
        schedule = standard_store_schedule(bit=1)
        text = render_control_sequence(schedule, signals=("wen", "d"))
        assert "wen" in text and "pc_b" not in text

    def test_rejects_tiny_width(self):
        with pytest.raises(AnalysisError):
            render_control_sequence(proposed_restore_schedule(), width=4)

    def test_edges_rendered(self):
        schedule = standard_store_schedule(bit=1)
        text = render_control_sequence(schedule, signals=("wen",), width=120)
        assert "/" in text and "\\" in text


class TestLayoutFigure:
    def test_ascii(self):
        assert "proposed-2bit-nv" in render_layout_ascii(plan_proposed_2bit())

    def test_svg(self):
        svg = layout_svg(plan_proposed_2bit())
        assert svg.startswith("<svg")


class TestFloorplanFigure:
    def test_ascii_marks_merged_pairs(self, placed_s344):
        merge = find_mergeable_pairs(placed_s344)
        text = floorplan_ascii(placed_s344, merge)
        assert "s344" in text
        if merge.pairs:
            assert "A" in text
        if merge.unmatched:
            assert "F" in text

    def test_ascii_without_merge(self, placed_s344):
        text = floorplan_ascii(placed_s344)
        assert "F" in text  # all flops unmerged

    def test_svg_contains_circles_for_pairs(self, placed_s344):
        merge = find_mergeable_pairs(placed_s344)
        svg = floorplan_svg(placed_s344, merge)
        assert svg.count("<circle") == len(merge.pairs)
        assert svg.startswith("<svg")


class TestReport:
    def test_record_markdown(self):
        record = ExperimentRecord("T2", "Latch comparison")
        record.add("read energy", "5.65 fJ", "6.1 fJ", "2x standard")
        markdown = record.as_markdown()
        assert "## T2" in markdown
        assert "| read energy |" in markdown

    def test_full_document(self):
        records = [ExperimentRecord("T1", "Setup"), ExperimentRecord("F9", "Floorplan")]
        records[0].add("radius", "20 nm", "20 nm")
        doc = render_experiments_markdown(records, preamble="Intro.")
        assert doc.startswith("# EXPERIMENTS")
        assert "Intro." in doc
        assert "## F9" in doc

    def test_artifacts_listed(self):
        record = ExperimentRecord("F8", "Layout", artifacts=["fig8.svg"])
        assert "`fig8.svg`" in record.as_markdown()


class TestImportCost:
    def test_table2_leaves_the_placer_unloaded(self):
        # Table II places nothing: the Table III builders import the
        # system flow on call, and the figures name placement types only
        # in annotations, so physical design and scipy.spatial stay out.
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        probe = ("import sys, repro.analysis, repro.api\n"
                 "with repro.api.Session(workers=1) as session:\n"
                 "    session.table2(corners=['typical'], dt=4e-12,\n"
                 "                   include_write=False)\n"
                 "print(sorted(m for m in sys.modules if m.startswith(\n"
                 "    ('repro.physd', 'repro.core', 'scipy.spatial'))))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
