"""Integration tests: the observability CLI surface end to end."""

import json

from repro.cli import main


class TestScheduleTrace:
    def test_trace_file_is_a_parseable_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["schedule", "figure1", "--arch", "ring", "--trace", str(out)]
        ) == 0
        assert "trace written to" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert events
        for e in events:
            assert {"ph", "ts", "pid", "tid"} <= set(e)
        names = [e["name"] for e in events if e["ph"] == "X"]
        # one span per optimiser phase ...
        for phase in ("startup", "rotate", "remap", "validate"):
            assert phase in names, f"missing {phase} span"
        # ... and one span per compaction pass
        passes = [
            e for e in events if e["ph"] == "X" and e["name"] == "pass"
        ]
        assert passes
        assert {p["args"]["index"] for p in passes} == set(
            range(1, len(passes) + 1)
        )

    def test_positional_and_flag_workload_agree(self, capsys):
        assert main(["schedule", "figure1", "--arch", "mesh",
                     "--pes", "4", "--render", "none"]) == 0
        positional = capsys.readouterr().out
        assert main(["schedule", "--workload", "figure1", "--arch", "mesh",
                     "--pes", "4", "--render", "none"]) == 0
        flag = capsys.readouterr().out
        assert positional == flag

    def test_unknown_positional_workload_errors(self, capsys):
        assert main(["schedule", "nonsense"]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_missing_workload_errors(self, capsys):
        assert main(["schedule"]) == 1
        assert "no workload given" in capsys.readouterr().err


class TestScheduleProfileFlag:
    def test_profile_prints_breakdown_and_metrics(self, capsys):
        assert main(["schedule", "figure1", "--arch", "mesh", "--pes", "4",
                     "--profile", "--render", "none"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "remap" in out
        assert "## metrics" in out
        assert "cyclo.passes" in out

    def test_observability_off_after_run(self):
        from repro.obs import enabled

        assert main(["schedule", "figure1", "--arch", "mesh", "--pes", "4",
                     "--profile", "--render", "none"]) == 0
        assert not enabled()


class TestSimulateObservability:
    def test_load_summary_always_printed(self, capsys):
        assert main(["simulate", "figure1", "--arch", "mesh", "--pes", "4",
                     "--loops", "4"]) == 0
        out = capsys.readouterr().out
        assert "per-PE utilisation:" in out
        assert "per-link traffic:" in out
        assert "pe1:" in out

    def test_trace_includes_simulation_tracks(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "figure1", "--arch", "mesh", "--pes", "4",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {1, 2} <= pids  # optimiser spans + simulated schedule
        sim_names = [
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["pid"] == 2
        ]
        assert "pe1" in sim_names

    def test_profile_metrics_include_simulator_load(self, capsys):
        assert main(["simulate", "figure1", "--arch", "mesh", "--pes", "4",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "sim.pe1.busy_steps" in out
        assert "sim.buffer.total_tokens" in out


class TestProfileCommand:
    def test_breakdown_sums_to_about_100(self, capsys):
        assert main(["profile", "figure1", "--arch", "mesh", "--pes", "4",
                     "--runs", "2", "--iterations", "10"]) == 0
        out = capsys.readouterr().out
        assert "profiled 2 run(s)" in out
        total_line = [
            line for line in out.splitlines() if line.startswith("total")
        ][0]
        percent = float(total_line.rstrip("%").split()[-1])
        assert 99.0 <= percent <= 100.5
        assert "startup" in out and "remap" in out

    def test_rejects_bad_runs(self, capsys):
        assert main(["profile", "figure1", "--runs", "0"]) == 1
        assert "--runs" in capsys.readouterr().err

    def test_profile_with_trace_file(self, tmp_path, capsys):
        out = tmp_path / "prof.json"
        assert main(["profile", "figure1", "--arch", "mesh", "--pes", "4",
                     "--runs", "1", "--iterations", "5",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e.get("name") == "cyclo_compact" for e in events)


class TestReportProfileFlag:
    def test_report_accepts_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "report.json"
        assert main(["report", "--iterations", "5", "--skip-table11",
                     "--trace", str(trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "phase" in out
        assert trace.exists()


class TestHistoryRecording:
    def test_schedule_appends_a_provenance_stamped_record(
        self, tmp_path, capsys
    ):
        from repro.obs.history import HistoryStore

        hist = tmp_path / "history"
        assert main(["schedule", "figure1", "--arch", "ring",
                     "--render", "none", "--history-dir", str(hist)]) == 0
        assert "history record (schedule) appended" in capsys.readouterr().out
        records = HistoryStore(hist).load("schedule")
        assert len(records) == 1
        rec = records[0]
        assert rec.workload == "figure1" and rec.kind == "schedule"
        assert rec.engine_version and rec.config_hash
        assert rec.duration_seconds > 0
        assert "remap" in rec.phases
        assert rec.attrs["final_length"] <= rec.attrs["initial_length"]

    def test_repeat_runs_accumulate_append_only(self, tmp_path):
        from repro.obs.history import HistoryStore

        hist = tmp_path / "history"
        for _ in range(2):
            assert main(["schedule", "figure1", "--arch", "ring",
                         "--render", "none",
                         "--history-dir", str(hist)]) == 0
        records = HistoryStore(hist).load("schedule")
        assert len(records) == 2
        # identical invocation => identical provenance group
        assert records[0].key() == records[1].key()

    def test_fuzz_appends_a_fuzz_record(self, tmp_path, capsys):
        from repro.obs.history import HistoryStore

        hist = tmp_path / "history"
        assert main(["fuzz", "--trials", "3", "--seed", "7",
                     "--max-nodes", "6",
                     "--history-dir", str(hist)]) == 0
        records = HistoryStore(hist).load("fuzz")
        assert len(records) == 1
        assert records[0].attrs["trials_run"] == 3
        assert records[0].attrs["failures"] == 0


class TestObsReportAndTop:
    def _make_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["schedule", "figure1", "--arch", "mesh", "--pes", "4",
                     "--render", "none", "--trace", str(trace)]) == 0
        return trace

    def test_report_over_a_trace_ranks_hotspots(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "## hotspots" in out
        assert "| span |" in out and "remap" in out

    def test_report_over_history_summarises_groups(self, tmp_path, capsys):
        hist = tmp_path / "history"
        assert main(["schedule", "figure1", "--arch", "ring",
                     "--render", "none", "--history-dir", str(hist)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "## run history (1 record(s))" in out
        assert "| schedule | figure1 |" in out

    def test_top_writes_collapsed_stacks(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path)
        collapsed = tmp_path / "stacks.collapsed"
        capsys.readouterr()
        assert main(["obs", "top", str(trace),
                     "--collapsed", str(collapsed)]) == 0
        out = capsys.readouterr().out
        assert "self (ms)" in out
        lines = collapsed.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack and value.isdigit()
        assert any(line.startswith("cyclo_compact;") for line in lines)

    def test_diff_of_a_run_against_itself_is_flat(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path)
        capsys.readouterr()
        assert main(["obs", "diff", str(trace), str(trace)]) == 0
        out = capsys.readouterr().out
        assert "| remap |" in out
        assert "1.000" in out  # every ratio is exactly 1


class TestRegressionGate:
    def test_identical_matrix_runs_report_no_regression(
        self, tmp_path, capsys
    ):
        hist = tmp_path / "history"
        for _ in range(2):
            assert main(["obs", "matrix", "--history-dir", str(hist)]) == 0
        capsys.readouterr()
        # one baseline sample of ~3 ms cells: use the CI gate's 2x
        # threshold so host noise cannot trip it; --min-seconds 0 keeps
        # every cell gated (the seeded-slowdown test proves it fires)
        assert main(["obs", "regressions", "--history-dir", str(hist),
                     "--kind", "gate", "--threshold", "2.0",
                     "--min-seconds", "0"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_seeded_slowdown_trips_the_gate(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.gate import GATE_SLEEP_ENV

        hist = tmp_path / "history"
        for _ in range(2):
            assert main(["obs", "matrix", "--history-dir", str(hist)]) == 0
        monkeypatch.setenv(GATE_SLEEP_ENV, "1.0")
        assert main(["obs", "matrix", "--history-dir", str(hist)]) == 0
        monkeypatch.delenv(GATE_SLEEP_ENV)
        capsys.readouterr()
        assert main(["obs", "regressions", "--history-dir", str(hist),
                     "--kind", "gate", "--threshold", "1.5"]) == 1
        out = capsys.readouterr().out
        assert "regression(s)" in out and "gate" in out

    def test_matrix_writes_collapsed_stacks_per_cell(
        self, tmp_path, capsys
    ):
        hist = tmp_path / "history"
        coll = tmp_path / "collapsed"
        assert main(["obs", "matrix", "--history-dir", str(hist),
                     "--collapsed-dir", str(coll)]) == 0
        files = sorted(p.name for p in coll.iterdir())
        assert files == [
            "figure7-hypercube8.collapsed",
            "figure7-mesh8.collapsed",
            "lattice4-ring4.collapsed",
        ]

    def test_empty_history_is_not_a_failure(self, tmp_path, capsys):
        assert main(["obs", "regressions",
                     "--history-dir", str(tmp_path / "nothing")]) == 0
        assert "no history records" in capsys.readouterr().out

    def test_bad_threshold_is_a_usage_error(self, tmp_path, capsys):
        assert main(["obs", "regressions",
                     "--history-dir", str(tmp_path),
                     "--threshold", "0.9"]) == 1
        assert "--threshold" in capsys.readouterr().err
