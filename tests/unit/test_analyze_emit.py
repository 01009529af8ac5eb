"""Unit tests for the text/JSON/SARIF report emitters."""

import json

import pytest

from repro.analyze import (
    RULES,
    AnalysisReport,
    make,
    render_report,
    to_json,
    to_sarif,
)
from repro.errors import AnalysisError


@pytest.fixture
def report():
    r = AnalysisReport(subject="unit test")
    r.add(make("RA101", "cycle a -> b -> a", node="a"))
    r.add(make("RA103", "node 'ghost' has no incident edges", node="ghost"))
    r.add(make("RA305", "length >= 7"))
    r.add(make(
        "RD103", "time.time() in repro.core.cyclo",
        file="src/repro/core/cyclo.py", line=12, col=4,
    ))
    r.suppressed = 2
    return r


class TestText:
    def test_counts_and_ordering(self, report):
        text = render_report(report, "text")
        lines = text.splitlines()
        assert "2 error(s), 1 warning(s), 1 info(s), 2 suppressed" in lines[0]
        # errors come first regardless of insertion order, then the
        # warning, then infos
        assert "RA101" in lines[1]
        assert "RD103" in lines[2]
        assert "RA103" in lines[3]

    def test_locus_rendering(self, report):
        text = render_report(report, "text")
        assert "[node a]" in text
        assert "src/repro/core/cyclo.py:12" in text

    def test_unknown_format_raises(self, report):
        with pytest.raises(AnalysisError, match="unknown output format"):
            render_report(report, "xml")


class TestJson:
    def test_shape(self, report):
        payload = json.loads(render_report(report, "json"))
        assert payload == to_json(report)
        assert payload["format"] == "repro-analysis"
        assert payload["version"] == 1
        assert payload["subject"] == "unit test"
        assert payload["counts"] == {"error": 2, "warning": 1, "info": 1}
        assert payload["suppressed"] == 2
        assert payload["ok"] is False

    def test_diagnostics_carry_stable_codes_and_loci(self, report):
        payload = to_json(report)
        by_code = {d["code"]: d for d in payload["diagnostics"]}
        assert by_code["RA101"]["node"] == "a"
        assert by_code["RD103"]["file"] == "src/repro/core/cyclo.py"
        assert by_code["RD103"]["line"] == 12
        # unset locus keys are omitted, not null
        assert "file" not in by_code["RA101"]

    def test_clean_report_is_ok(self):
        payload = to_json(AnalysisReport(subject="clean"))
        assert payload["ok"] is True and payload["diagnostics"] == []


class TestSarif:
    def test_envelope(self, report):
        sarif = to_sarif(report)
        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        [run] = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-analyze"

    def test_rules_cover_exactly_the_present_codes(self, report):
        [run] = to_sarif(report)["runs"]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert sorted(ids) == ["RA101", "RA103", "RA305", "RD103"]
        for entry in run["tool"]["driver"]["rules"]:
            assert entry["name"] == RULES[entry["id"]].title
            assert entry["fullDescription"]["text"]

    def test_results_reference_rules_by_index(self, report):
        [run] = to_sarif(report)["runs"]
        ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]

    def test_severity_level_mapping(self, report):
        [run] = to_sarif(report)["runs"]
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["RA101"] == "error"
        assert levels["RA103"] == "warning"
        assert levels["RA305"] == "note"

    def test_file_locus_becomes_physical_location(self, report):
        [run] = to_sarif(report)["runs"]
        [rd103] = [r for r in run["results"] if r["ruleId"] == "RD103"]
        physical = rd103["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/repro/core/cyclo.py"
        assert physical["region"] == {"startLine": 12, "startColumn": 5}

    def test_node_locus_becomes_logical_location(self, report):
        [run] = to_sarif(report)["runs"]
        [ra101] = [r for r in run["results"] if r["ruleId"] == "RA101"]
        logical = ra101["locations"][0]["logicalLocations"][0]
        assert logical["fullyQualifiedName"] == "node a"

    def test_suppressed_findings_never_appear(self):
        # suppression happens in the lint head before the report is
        # built; the emitters must not resurrect anything
        from repro.analyze import lint_source

        src = "import time\nt = time.time()  # repro-lint: disable=RD103\n"
        found, suppressed = lint_source(src, module="repro.core.cyclo")
        r = AnalysisReport(subject="x")
        r.extend(found)
        r.suppressed = suppressed
        [run] = to_sarif(r)["runs"]
        assert run["results"] == [] and r.suppressed == 1

    def test_sarif_is_json_serializable_for_every_rule(self):
        r = AnalysisReport(subject="all")
        for code in RULES:
            r.add(make(code, f"synthetic {code}"))
        text = render_report(r, "sarif")
        parsed = json.loads(text)
        assert len(parsed["runs"][0]["results"]) == len(RULES)


class TestSarifConformance:
    """SARIF 2.1.0 details consumers actually reject: regions are
    1-indexed, URIs are percent-encoded, and the whole document
    round-trips through its own serialization."""

    def test_zero_line_is_clamped_to_one(self):
        r = AnalysisReport()
        r.add(make("RD103", "module-level clock read",
                   file="src/repro/x.py", line=0, col=0))
        [run] = to_sarif(r)["runs"]
        region = (run["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region == {"startLine": 1, "startColumn": 1}

    def test_negative_column_is_clamped(self):
        r = AnalysisReport()
        r.add(make("RD103", "x", file="a.py", line=3, col=-1))
        [run] = to_sarif(r)["runs"]
        region = (run["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region["startLine"] == 3 and region["startColumn"] == 1

    def test_column_is_one_indexed(self):
        # ast reports 0-indexed col_offset; SARIF wants 1-indexed
        r = AnalysisReport()
        r.add(make("RD103", "x", file="a.py", line=3, col=4))
        [run] = to_sarif(r)["runs"]
        region = (run["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region["startColumn"] == 5

    def test_non_ascii_uri_is_percent_encoded(self):
        r = AnalysisReport()
        r.add(make("RD103", "x", file="src/répro/naïve file.py", line=1))
        [run] = to_sarif(r)["runs"]
        uri = (run["results"][0]["locations"][0]
               ["physicalLocation"]["artifactLocation"]["uri"])
        assert uri == "src/r%C3%A9pro/na%C3%AFve%20file.py"
        assert uri.isascii() and " " not in uri

    def test_windows_separators_are_normalized(self):
        r = AnalysisReport()
        r.add(make("RD103", "x", file="src\\repro\\x.py", line=1))
        [run] = to_sarif(r)["runs"]
        uri = (run["results"][0]["locations"][0]
               ["physicalLocation"]["artifactLocation"]["uri"])
        assert uri == "src/repro/x.py"

    def test_round_trip(self, report):
        # serialize, re-parse, and re-check the invariants a SARIF
        # viewer relies on — all from the parsed copy, not the dict
        # we built
        parsed = json.loads(render_report(report, "sarif"))
        assert parsed["version"] == "2.1.0"
        [run] = parsed["runs"]
        rules = run["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert len(ids) == len(set(ids))
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
            assert result["message"]["text"]
            assert result["level"] in ("error", "warning", "note")
            for loc in result.get("locations", []):
                physical = loc.get("physicalLocation")
                if physical is None:
                    continue
                region = physical["region"]
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1
                assert physical["artifactLocation"]["uri"].isascii()
