"""Unit tests for the `repro analyze` CLI command."""

import json

import pytest

from repro.cli import main
from repro.core import CycloConfig, cyclo_compact
from repro.schedule.io import schedule_to_json
from repro.workloads import make_workload


class TestAnalyzeCommand:
    def test_clean_pair_exits_zero(self, capsys):
        assert main(["analyze", "fir8", "mesh", "--pes", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out and "RA305" in out

    def test_infeasible_target_exits_one(self, capsys):
        code = main(
            ["analyze", "biquad4", "mesh", "--pes", "4",
             "--target-length", "1"]
        )
        assert code == 1
        assert "RA301" in capsys.readouterr().out

    def test_unknown_graph_spec_exits_one(self, capsys):
        assert main(["analyze", "no-such-thing"]) == 1
        assert "RA108" in capsys.readouterr().out

    def test_no_graph_is_a_usage_error(self, capsys):
        assert main(["analyze"]) == 1
        assert "no graph given" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(
            ["analyze", "fir8", "ring", "--pes", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-analysis"
        assert payload["ok"] is True

    def test_sarif_to_file(self, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        assert main(
            ["analyze", "fir8", "mesh", "--pes", "4",
             "--format", "sarif", "--out", str(out)]
        ) == 0
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        assert "written to" in capsys.readouterr().out

    def test_strict_turns_warnings_into_failure(self, tmp_path, capsys):
        # a dead node is a warning: exit 0 normally, 1 under --strict
        from repro.graph.io import to_json as graph_to_json

        graph = make_workload("fir8")
        graph.add_node("ghost", 1)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(graph)))
        assert main(["analyze", str(path), "mesh", "--pes", "4"]) == 0
        capsys.readouterr()
        assert main(
            ["analyze", str(path), "mesh", "--pes", "4", "--strict"]
        ) == 1
        assert "RA103" in capsys.readouterr().out

    def test_degraded_analysis_flags(self, capsys):
        # cutting a ring link inflates the diameter: RA205 warning
        assert main(
            ["analyze", "fir8", "ring", "--pes", "6", "--cut-link", "1-6"]
        ) == 0
        assert "RA205" in capsys.readouterr().out

    def test_disconnecting_failure_exits_one(self, capsys):
        code = main(
            ["analyze", "fir8", "linear", "--pes", "3", "--fail-pe", "2"]
        )
        assert code == 1
        assert "RA201" in capsys.readouterr().out

    def test_config_file_with_target_length(self, tmp_path, capsys):
        cfg = CycloConfig().to_dict()
        cfg["target_length"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["analyze", "biquad4", "mesh", "--pes", "4",
             "--config", str(path)]
        )
        assert code == 1
        assert "RA301" in capsys.readouterr().out

    def test_malformed_config_is_ra304(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"no_such_knob": True}))
        assert main(
            ["analyze", "fir8", "mesh", "--pes", "4", "--config", str(path)]
        ) == 1
        assert "RA304" in capsys.readouterr().out

    def test_schedule_certificate_roundtrip(self, tmp_path, capsys):
        graph = make_workload("fir8")
        from repro.arch import make_architecture

        arch = make_architecture("mesh", 4)
        result = cyclo_compact(
            graph, arch,
            config=CycloConfig(max_iterations=10, validate_each_step=False),
        )
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_to_json(result.schedule)))
        assert main(
            ["analyze", "fir8", "mesh", "--pes", "4",
             "--schedule", str(path)]
        ) == 0

    def test_schedule_certificate_rejects_wrong_machine(
        self, tmp_path, capsys
    ):
        # certify a 4-PE mesh schedule against a 2-PE machine: the
        # placements use PEs that do not exist there
        graph = make_workload("fir8")
        from repro.arch import make_architecture

        arch = make_architecture("mesh", 4)
        result = cyclo_compact(
            graph, arch,
            config=CycloConfig(max_iterations=4, validate_each_step=False),
        )
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_to_json(result.schedule)))
        code = main(
            ["analyze", "fir8", "linear", "--pes", "2",
             "--schedule", str(path)]
        )
        if code == 0:
            # the compaction may have clustered everything on 2 PEs;
            # force the issue with a machine of 1 PE less than used
            pes = {p.pe for p in result.schedule.placements()}
            assert pes <= {0, 1}
        else:
            assert "RA40" in capsys.readouterr().out

    def test_paper_suite_is_clean(self, capsys):
        assert main(["analyze", "--paper-suite", "--pes", "8"]) == 0
        out = capsys.readouterr().out
        assert "pair(s)" in out and "0 error(s)" in out


class TestListRules:
    def test_prints_every_band(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for head in ("input analyzer", "codebase lint",
                     "determinism flow", "engine contracts"):
            assert head in out
        for code in ("RA101", "RL101", "RL109",
                     "RD101", "RD104", "RC201"):
            assert code in out

    def test_shows_severity_and_title(self, capsys):
        main(["analyze", "--list-rules"])
        out = capsys.readouterr().out
        assert "RD101  error" in out
        assert "unseeded-rng-reaches-parallel-work" in out
        assert "RL109  warning" in out


class TestFlowCommand:
    def test_shipped_tree_is_clean(self, capsys):
        assert main(["analyze", "--flow"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_explicit_paths(self, tmp_path, capsys):
        victim = tmp_path / "repro" / "perf" / "driver.py"
        victim.parent.mkdir(parents=True)
        victim.write_text(
            "import random\n"
            "from repro.perf.parallel import run_parallel\n"
            "def payload(item):\n"
            "    return random.random()\n"
            "def drive(items):\n"
            "    return run_parallel(payload, items)\n"
        )
        assert main(["analyze", "--flow", str(victim)]) == 1
        out = capsys.readouterr().out
        assert "RD101" in out

    def test_flow_sarif_output(self, tmp_path, capsys):
        out_path = tmp_path / "flow.sarif"
        assert main([
            "analyze", "--flow", "--format", "sarif",
            "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        sarif = json.loads(out_path.read_text())
        assert sarif["version"] == "2.1.0"


class TestSanitizeCommand:
    def test_clean_target_exits_zero(self, capsys, monkeypatch):
        import repro
        from pathlib import Path

        monkeypatch.setenv(
            "PYTHONPATH", str(Path(repro.__file__).parent.parent)
        )
        assert main([
            "sanitize", "--timeout", "60", "--",
            "schedule", "figure1", "--arch", "mesh", "--pes", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out

    def test_json_artifact(self, tmp_path, capsys, monkeypatch):
        import repro
        from pathlib import Path

        monkeypatch.setenv(
            "PYTHONPATH", str(Path(repro.__file__).parent.parent)
        )
        out_path = tmp_path / "sanitize.json"
        assert main([
            "sanitize", "--timeout", "60", "--out", str(out_path), "--",
            "schedule", "figure1", "--arch", "mesh", "--pes", "4",
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["format"] == "repro-sanitize"
        assert payload["ok"] is True

    def test_missing_target_fails(self, capsys):
        assert main(["sanitize"]) == 1
        err = capsys.readouterr().err
        assert "needs a target" in err
