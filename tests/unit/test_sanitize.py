"""Tests for the dynamic determinism sanitizer (``repro sanitize``).

Three layers: the canonicalization scrubbers (pure functions), the
double-run protocol on the real CLI (byte-identical on the shipped
tree — the acceptance baseline), and the mutation cross-check: inject
hash-seed-dependent jitter into a copy of ``core/priority.py`` and
demand that *both* heads convict it — the static source analyzer with
RD103 and the sanitizer with a non-empty diff.
"""

import shutil
import sys
from pathlib import Path

import pytest

import repro
from repro.analyze import lint_paths
from repro.analyze.sanitize import (
    RunOutcome,
    canonicalize_output,
    sanitize_command,
    schedule_fingerprint,
    _with_jobs,
)
from repro.arch import make_architecture
from repro.core import CycloConfig, cyclo_compact
from repro.errors import AnalysisError
from repro.workloads import make_workload

PACKAGE_DIR = Path(repro.__file__).parent
CHECKED = CycloConfig(validate_each_step=True)


class TestCanonicalize:
    @pytest.mark.parametrize("raw", [
        "compacted in 0.31s",
        "compacted in 12.5 ms",
        "compacted in 3 seconds",
    ])
    def test_durations_are_scrubbed(self, raw):
        assert "<DURATION>" in canonicalize_output(raw)

    def test_rates_are_scrubbed(self):
        out = canonicalize_output("throughput 8_123.4 nodes/s")
        assert "<RATE>" in out and "8_123" not in out

    def test_written_paths_are_scrubbed(self):
        a = canonicalize_output("report written to /out/run-a.json")
        b = canonicalize_output("report written to /out/run-b.json")
        assert a == b and "<PATH>" in a

    def test_tmp_paths_are_scrubbed(self):
        out = canonicalize_output("spilled to /tmp/repro-x8f2/hist")
        assert "/tmp/" not in out and "<TMP>" in out

    def test_jobs_echo_is_scrubbed(self):
        a = canonicalize_output("fuzz: 40 trials, jobs=1")
        b = canonicalize_output("fuzz: 40 trials, jobs=2")
        assert a == b

    def test_schedule_payload_survives(self):
        line = "1  | F   B   .   A   (length 3, comm cost 12)"
        assert canonicalize_output(line) == line


class TestWithJobs:
    def test_rewrites_separated_flag(self):
        args, jobs = _with_jobs(("fuzz", "--jobs", "4", "--seed", "1"), 2)
        assert args == ("fuzz", "--jobs", "2", "--seed", "1")
        assert jobs == 2

    def test_rewrites_equals_flag(self):
        args, jobs = _with_jobs(("fuzz", "--jobs=4"), 1)
        assert args == ("fuzz", "--jobs=1") and jobs == 1

    def test_never_injects(self):
        args, jobs = _with_jobs(("schedule", "figure1"), 2)
        assert args == ("schedule", "figure1") and jobs is None


class TestRunOutcome:
    def test_canonical_embeds_exit_and_streams(self):
        run = RunOutcome(
            argv=("python", "-m", "repro", "x"), hashseed=101,
            jobs=None, returncode=2, stdout="done in 0.5s\n",
            stderr="warn\n",
        )
        assert run.canonical.startswith("exit=2\n")
        assert "<DURATION>" in run.canonical
        assert "--- stderr ---" in run.canonical


class TestScheduleFingerprint:
    def test_stable_across_runs(self, figure1, mesh2x2):
        a = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        b = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        assert schedule_fingerprint(a.schedule) == \
            schedule_fingerprint(b.schedule)

    def test_encodes_every_placement(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CHECKED)
        fp = schedule_fingerprint(result.schedule)
        assert fp.startswith("L")
        assert fp.count(";") == figure1.num_nodes - 1

    def test_distinguishes_different_schedules(self):
        graph = make_workload("fir8")
        narrow = make_architecture("linear", 2)
        wide = make_architecture("mesh", 4)
        a = cyclo_compact(graph, narrow, config=CHECKED)
        b = cyclo_compact(graph, wide, config=CHECKED)
        assert schedule_fingerprint(a.schedule) != \
            schedule_fingerprint(b.schedule)


class TestSanitizeProtocol:
    def test_empty_target_is_analysis_error(self):
        with pytest.raises(AnalysisError, match="needs a target"):
            sanitize_command([])

    def test_unlaunchable_python_is_analysis_error(self):
        with pytest.raises(AnalysisError, match="cannot launch"):
            sanitize_command(
                ["schedule", "figure1"], python="/no/such/python"
            )

    def test_shipped_schedule_is_byte_identical(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(PACKAGE_DIR.parent))
        report = sanitize_command(
            ["schedule", "figure1", "--arch", "mesh", "--pes", "4"],
            timeout=60.0,
        )
        assert report.ok, "\n".join(report.diff)
        assert report.exit_code() == 0
        assert "byte-identical" in report.describe()
        a, b = report.runs
        assert (a.hashseed, b.hashseed) == (101, 202)
        assert a.jobs is None and b.jobs is None  # no --jobs to rewrite

    def test_report_serializes(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", str(PACKAGE_DIR.parent))
        report = sanitize_command(
            ["schedule", "figure1", "--arch", "mesh", "--pes", "4"],
            timeout=60.0,
        )
        import json

        payload = json.loads(report.to_json())
        assert payload["format"] == "repro-sanitize"
        assert payload["ok"] is True
        assert len(payload["runs"]) == 2


def mutate_priority(site: Path) -> Path:
    """Copy the shipped package under ``site`` and salt the paper
    priority function with a ``PYTHONHASHSEED``-dependent term."""
    pkg = site / "repro"
    shutil.copytree(PACKAGE_DIR, pkg)
    victim = pkg / "core" / "priority.py"
    text = victim.read_text()
    marker = "    \"\"\"The paper's PF (Definition 3.6).\"\"\"\n"
    assert marker in text
    text = text.replace(marker, marker + (
        "    import os\n"
        "    import zlib\n"
        "    alap -= zlib.crc32(\n"
        "        f\"{os.environ.get('PYTHONHASHSEED', '')}:\"\n"
        "        f\"{node}\".encode()\n"
        "    ) % 97\n"
    ), 1)
    victim.write_text(text)
    return pkg


class TestMutationCrossCheck:
    """The acceptance gate: one planted nondeterminism bug, convicted
    by both the static and the dynamic head."""

    def test_static_head_fires_rd103(self, tmp_path):
        pkg = mutate_priority(tmp_path)
        report = lint_paths([pkg])
        hits = [d for d in report.diagnostics if d.code == "RD103"]
        assert hits, report.describe()
        assert any(d.file.endswith("priority.py") for d in hits)

    def test_dynamic_head_reports_a_diff(self, tmp_path, monkeypatch):
        mutate_priority(tmp_path)
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        report = sanitize_command(
            ["schedule", "fir8", "--arch", "mesh", "--pes", "4"],
            timeout=60.0,
        )
        assert not report.ok
        assert report.exit_code() == 1
        assert "DETERMINISM VIOLATION" in report.describe()

    def test_pristine_copy_stays_clean_both_ways(self, tmp_path,
                                                 monkeypatch):
        pkg = tmp_path / "repro"
        shutil.copytree(PACKAGE_DIR, pkg)
        report = lint_paths([pkg])
        assert [d for d in report.diagnostics
                if d.severity == "error"] == []
        monkeypatch.setenv("PYTHONPATH", str(tmp_path))
        dyn = sanitize_command(
            ["schedule", "fir8", "--arch", "mesh", "--pes", "4"],
            timeout=60.0,
        )
        assert dyn.ok, "\n".join(dyn.diff)
