"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_workloads_and_kinds(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "elliptic5" in out
        assert "hypercube" in out


class TestInfo:
    def test_figure1_stats(self, capsys):
        assert main(["info", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "nodes:           6" in out
        assert "iteration bound: 3" in out

    def test_rejects_unknown_workload(self, capsys):
        # a one-line friendly error listing the registry, not a traceback
        assert main(["info", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload 'nonsense'")
        assert "figure1" in err and "elliptic5" in err

    def test_rejects_unknown_architecture(self, capsys):
        assert main(["schedule", "figure1", "--arch", "moebius"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown architecture kind 'moebius'")
        assert "mesh" in err and "hypercube" in err


class TestSchedule:
    def test_default_run(self, capsys):
        assert main(
            ["schedule", "--workload", "figure1", "--arch", "mesh", "--pes", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "7 ->" in out
        assert "compacted schedule:" in out
        assert "pe1" in out

    def test_gantt_render(self, capsys):
        assert main(
            [
                "schedule",
                "--workload",
                "figure1",
                "--arch",
                "complete",
                "--pes",
                "4",
                "--render",
                "gantt",
            ]
        ) == 0
        assert "pe1" in capsys.readouterr().out

    def test_no_render(self, capsys):
        assert main(
            [
                "schedule",
                "--workload",
                "diffeq",
                "--arch",
                "ring",
                "--pes",
                "4",
                "--render",
                "none",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "control steps" in out
        assert "cs |" not in out

    def test_no_relax_and_pipelined_flags(self, capsys):
        assert main(
            [
                "schedule",
                "--workload",
                "figure1",
                "--arch",
                "mesh",
                "--pes",
                "4",
                "--no-relax",
                "--pipelined",
                "--iterations",
                "5",
                "--render",
                "none",
            ]
        ) == 0

    def test_slowdown_flag(self, capsys):
        assert main(
            [
                "schedule",
                "--workload",
                "lattice4",
                "--arch",
                "linear",
                "--pes",
                "4",
                "--slowdown",
                "2",
                "--render",
                "none",
            ]
        ) == 0

    def test_bad_architecture_size_reports_error(self, capsys):
        # hypercube needs a power-of-two PE count
        code = main(
            [
                "schedule",
                "--workload",
                "figure1",
                "--arch",
                "hypercube",
                "--pes",
                "6",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_schedule_with_restarts(self, capsys):
        assert main(
            [
                "schedule",
                "figure7",
                "--arch",
                "mesh",
                "--pes",
                "8",
                "--iterations",
                "12",
                "--restarts",
                "2",
                "--render",
                "none",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "best of 2 restarts" in out
        assert "restart 0" in out and "restart 1" in out
        assert "control steps" in out

    def test_restarts_reject_refine(self, capsys):
        assert main(
            ["schedule", "figure7", "--restarts", "2", "--refine"]
        ) == 1
        assert "--refine" in capsys.readouterr().err


class TestSimulate:
    def test_simulation_stats(self, capsys):
        assert main(
            [
                "simulate",
                "--workload",
                "figure1",
                "--arch",
                "mesh",
                "--pes",
                "4",
                "--loops",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "simulated 4 iterations" in out
        assert "throughput" in out
        assert "buffer tokens" in out


class TestExperiment:
    def test_figure1(self, capsys):
        assert main(["experiment", "figure1", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "start-up (paper: 7 cs):" in out
        assert "compacted (paper: 5 cs" in out

    def test_tables19(self, capsys):
        assert main(["experiment", "tables19", "--iterations", "20"]) == 0
        out = capsys.readouterr().out
        assert "com" in out and "hyp" in out


class TestFaults:
    def test_repair_kill_pe(self, capsys):
        assert main(
            ["faults", "repair", "figure1", "--kill-pe", "1",
             "--render", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "permanent failure of pe1" in out
        assert "repair (" in out and "surviving" in out

    def test_repair_requires_a_fault(self, capsys):
        assert main(["faults", "repair", "figure1"]) == 1
        assert "nothing to repair" in capsys.readouterr().err

    def test_repair_bad_link_spec(self, capsys):
        assert main(
            ["faults", "repair", "figure1", "--cut-link", "banana"]
        ) == 1
        assert "--cut-link expects" in capsys.readouterr().err

    def test_inject_random_campaign(self, capsys):
        assert main(
            ["faults", "inject", "figure1", "--arch", "complete",
             "--seed", "3", "--faults", "1", "--loops", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "iterations" in out

    def test_inject_campaign_file(self, tmp_path, capsys):
        from repro.resilience import FaultCampaign, PEFault

        path = tmp_path / "c.json"
        path.write_text(FaultCampaign([PEFault(0, at_step=1)]).to_json())
        assert main(
            ["faults", "inject", "figure1", "--arch", "complete",
             "--campaign", str(path), "--loops", "3"]
        ) == 0
        assert "failure of pe1" in capsys.readouterr().out

    def test_campaign_smoke(self, capsys):
        assert main(
            ["faults", "campaign", "--trials", "4", "--seed", "0"]
        ) == 0
        assert "INVARIANT HOLDS" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert parser.format_help()


class TestBrokenPipe:
    def test_broken_pipe_exits_zero(self, monkeypatch):
        # `python -m repro list | head -1` must exit 0, not print
        # "error: [Errno 32] ..." — BrokenPipeError is an OSError
        # subclass, so its handler has to come first in main()
        import repro.cli as cli

        def explode(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_cmd_list", explode)
        assert main(["list"]) == 0


class TestCodegen:
    def test_program_listing(self, capsys):
        assert main(
            [
                "codegen",
                "--workload",
                "figure1",
                "--arch",
                "mesh",
                "--pes",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "steady-state loop body" in out
        assert "compute" in out
        assert "messages per iteration" in out


class TestRefineFlag:
    def test_refined_schedule_runs(self, capsys):
        assert main(
            [
                "schedule",
                "--workload",
                "figure7",
                "--arch",
                "linear",
                "--pes",
                "8",
                "--refine",
                "--render",
                "none",
                "--iterations",
                "30",
            ]
        ) == 0
        assert "control steps" in capsys.readouterr().out


class TestExperimentTable11:
    def test_table11_renders(self, capsys):
        assert main(["experiment", "table11", "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        assert "Elliptic Filter" in out and "Lattice Filter" in out
        assert "com:init" in out and "hyp:after" in out
        assert "w/o" in out and "with" in out


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(
            ["report", "--iterations", "15", "--skip-table11"]
        ) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Tables 1-10" in out
        assert "| com |" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(
            [
                "report",
                "--iterations",
                "10",
                "--skip-table11",
                "--out",
                str(target),
            ]
        ) == 0
        assert target.exists()
        assert "Figures 1-4" in target.read_text()
        assert "report written" in capsys.readouterr().out
