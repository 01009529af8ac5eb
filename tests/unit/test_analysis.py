"""Unit tests for the experiment harness."""

from dataclasses import replace

from repro.analysis import (
    PRIORITY_VARIANTS,
    comm_awareness_ablation,
    convergence_study,
    format_cells,
    format_table11,
    priority_ablation,
    relaxation_ablation,
    run_cell,
    run_grid,
)
from repro.arch import (
    CompletelyConnected,
    LinearArray,
    Ring,
    paper_architectures,
)
from repro.core import CycloConfig, cyclo_compact

FAST = CycloConfig(max_iterations=15, validate_each_step=False)


class TestRunCell:
    def test_figure1_cell(self, figure1, mesh2x2):
        cell, result = run_cell(figure1, mesh2x2)
        assert cell.init == 7
        assert cell.after <= 5
        assert cell.improvement == cell.init - cell.after
        assert 0 < cell.ratio <= 1
        assert cell.workload == "figure1"
        assert cell.architecture == "mesh2x2"
        assert result.final_length == cell.after

    def test_relaxation_flag_respected(self, figure1, mesh2x2):
        cell, _ = run_cell(
            figure1, mesh2x2, config=replace(FAST, relaxation=False)
        )
        assert cell.relaxation is False

    def test_config_relaxation_is_the_one_run(self, figure1, mesh2x2):
        strict = CycloConfig(relaxation=False)
        cell, result = run_cell(figure1, mesh2x2, config=strict)
        direct = cyclo_compact(figure1, mesh2x2, config=strict)
        assert cell.relaxation is False
        assert result.trace == direct.trace

    def test_every_config_field_reaches_the_run(self, figure7):
        arch = Ring(8)
        cfg = CycloConfig(
            relaxation=False, remap_strategy="first-fit", max_iterations=30
        )
        cell, result = run_cell(figure7, arch, config=cfg)
        direct = cyclo_compact(figure7, arch, config=cfg)
        assert cell.after == direct.final_length
        assert result.schedule.same_placements(direct.schedule)

    def test_pipelined_config_validates_its_startup(self, figure7):
        arch = LinearArray(8)
        cfg = CycloConfig(pipelined_pes=True, max_iterations=15)
        cell, _ = run_cell(figure7, arch, config=cfg)
        direct = cyclo_compact(figure7, arch, config=cfg)
        assert cell.after == direct.final_length

    def test_bound_is_floor(self, figure7):
        cell, _ = run_cell(figure7, CompletelyConnected(8), config=FAST)
        assert cell.after >= cell.bound


class TestRunGrid:
    def test_all_architectures_present(self, figure1):
        archs = {"com": CompletelyConnected(4), "lin": LinearArray(4)}
        cells = run_grid(figure1, archs, config=FAST)
        assert set(cells) == {"com", "lin"}
        assert all(c.after <= c.init for c in cells.values())


class TestFormatting:
    def test_table11_layout(self, figure1):
        archs = paper_architectures(4)
        cells = run_grid(figure1, archs, config=FAST)
        text = format_table11([("figure1", "with", cells)])
        assert "com:init" in text and "hyp:after" in text
        assert "figure1" in text

    def test_table11_missing_cells_dashed(self):
        text = format_table11([("w", "p", {})])
        assert "-" in text

    def test_format_cells(self, figure1, mesh2x2):
        cell, _ = run_cell(figure1, mesh2x2, config=FAST)
        text = format_cells({"mesh": cell})
        assert "mesh" in text and "init" in text


class TestAblations:
    def test_priority_ablation_runs_all_variants(self, figure7):
        arch = LinearArray(8)
        lengths = priority_ablation(figure7, arch)
        assert set(lengths) == set(PRIORITY_VARIANTS)
        assert all(isinstance(v, int) and v > 0 for v in lengths.values())

    def test_comm_awareness_rows(self, figure1, mesh2x2):
        rows = comm_awareness_ablation(figure1, mesh2x2, config=FAST)
        names = [r.scheduler for r in rows]
        assert names == ["cyclo-compaction", "oblivious-list", "rotation-no-comm"]
        cyclo = rows[0]
        assert cyclo.actual == cyclo.claimed

    def test_relaxation_ablation(self, figure1, mesh2x2):
        out = relaxation_ablation(figure1, mesh2x2, max_iterations=15)
        assert set(out) == {"with", "w/o"}
        assert all(v >= 1 for v in out.values())


class TestConvergence:
    def test_report_shape(self, figure1, mesh2x2):
        report = convergence_study(figure1, mesh2x2, max_iterations=10)
        assert report.lengths[0] == 7
        assert report.best == min(report.lengths)
        assert report.normalized[0] == 1.0
        assert report.passes_to_best <= 10


class TestFullReport:
    def test_generate_contains_all_sections(self):
        from repro.analysis import generate_full_report

        text = generate_full_report(compaction_passes=10)
        assert "Figures 1-4" in text
        assert "Tables 1-10" in text
        assert "Table 11" in text
        assert "Elliptic Filter" in text
        # every 19-node architecture appears as a comparison row
        for key in ("com", "lin", "rin", "2-d", "hyp"):
            assert f"| {key} |" in text
