"""Unit tests for the input-analyzer rules (RA1xx-RA3xx) and catalogue."""

import re
from pathlib import Path

import pytest

from repro.analyze import (
    RULES,
    AnalysisReport,
    Diagnostic,
    analyze_inputs,
    build_architecture,
    check_arch,
    check_config,
    check_graph,
    check_graph_payload,
    check_target_length,
    load_graph_input,
    make,
    rule,
)
from repro.arch import make_architecture
from repro.arch.degraded import DegradedTopology
from repro.core import CycloConfig
from repro.errors import AnalysisError
from repro.graph import CSDFG
from repro.graph.io import to_json
from repro.workloads import make_workload


def codes(diags):
    return sorted(d.code for d in diags)


class TestCatalogue:
    def test_bands_are_consistent(self):
        for code, entry in RULES.items():
            assert entry.code == code
            assert code[:3] in (
                "RA1", "RA2", "RA3", "RA4", "RL1", "RD1", "RC2",
            )
            assert entry.title and entry.description

    def test_codes_are_stable(self):
        # the public contract: these exact codes exist (docs, CI
        # annotations and suppression comments all reference them);
        # renumbering any of them is a breaking change, and removing
        # one is a retirement recorded in docs/analysis.md
        assert set(RULES) >= {
            "RA101", "RA102", "RA103", "RA104", "RA105", "RA106",
            "RA107", "RA108",
            "RA201", "RA202", "RA203", "RA204", "RA205",
            "RA301", "RA302", "RA303", "RA304", "RA305",
            "RA401", "RA402", "RA403", "RA404", "RA405",
            "RL101", "RL103", "RL104", "RL105", "RL106",
            "RL107", "RL109",
            "RD102", "RD103",
            "RC203",
        }

    def test_rule_docs_match_the_catalogue(self):
        # docs/analysis.md documents every live code in a table row and
        # names every retired one on a "Retired:" line
        doc = (
            Path(__file__).resolve().parents[2] / "docs" / "analysis.md"
        ).read_text()
        rows = set(re.findall(r"^\| (R[A-Z]\d{3}) \|", doc, re.M))
        retired = {
            code
            for line in re.findall(r"^Retired: .*$", doc, re.M)
            for code in re.findall(r"\*\*(R[A-Z]\d{3})\*\*", line)
        }
        assert rows == set(RULES)
        assert retired >= {
            "RC204", "RL108", "RL102", "RD101", "RD104", "RC201", "RC202",
        }
        assert not retired & set(RULES)

    def test_make_uses_catalogue_defaults(self):
        d = make("RA101", "boom")
        assert d.severity == "error"
        assert d.hint == RULES["RA101"].hint

    def test_make_allows_overrides(self):
        d = make("RA103", "boom", severity="info", hint="no")
        assert (d.severity, d.hint) == ("info", "no")

    def test_unknown_code_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule code"):
            rule("RA999")
        with pytest.raises(AnalysisError):
            make("RA999", "boom")

    def test_diagnostic_rejects_bad_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(code="RA101", severity="fatal", message="x")


class TestGraphRules:
    def test_clean_graph(self, figure1):
        assert check_graph(figure1) == []

    def test_empty_graph_is_ra102(self):
        assert codes(check_graph(CSDFG("empty"))) == ["RA102"]

    def test_zero_delay_cycle_is_ra101(self):
        g = CSDFG("dead")
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_edge("a", "b", 0, 1)
        g.add_edge("b", "a", 0, 1)
        found = check_graph(g)
        assert "RA101" in codes(found)
        [d] = [d for d in found if d.code == "RA101"]
        assert d.severity == "error"

    def test_isolated_node_is_ra103(self, tiny_loop):
        tiny_loop.add_node("ghost", 1)
        assert "RA103" in codes(check_graph(tiny_loop))

    def test_disconnected_components_are_ra104(self, tiny_loop):
        tiny_loop.add_node("x", 1)
        tiny_loop.add_node("y", 1)
        tiny_loop.add_edge("x", "y", 1, 1)
        assert "RA104" in codes(check_graph(tiny_loop))


class TestGraphPayloadRules:
    def payload(self, **over):
        base = {
            "format": "repro-csdfg",
            "nodes": [{"id": "a", "time": 1}, {"id": "b", "time": 2}],
            "edges": [{"src": "a", "dst": "b", "delay": 1, "volume": 1}],
        }
        base.update(over)
        return base

    def test_clean_payload(self):
        assert check_graph_payload(self.payload()) == []

    def test_roundtrip_of_a_real_graph_is_clean(self, figure1):
        assert check_graph_payload(to_json(figure1)) == []

    def test_not_a_payload_is_ra108(self):
        assert codes(check_graph_payload([1, 2])) == ["RA108"]
        assert codes(check_graph_payload({"nodes": []})) == ["RA108"]

    def test_bad_time_is_ra105(self):
        p = self.payload(nodes=[{"id": "a", "time": 0}, {"id": "b"}])
        assert "RA105" in codes(check_graph_payload(p))

    def test_bad_delay_is_ra106(self):
        p = self.payload(edges=[{"src": "a", "dst": "b", "delay": -1}])
        assert "RA106" in codes(check_graph_payload(p))

    def test_bad_volume_is_ra107(self):
        p = self.payload(edges=[{"src": "a", "dst": "b", "volume": 0}])
        assert "RA107" in codes(check_graph_payload(p))

    def test_dangling_endpoint_is_ra108(self):
        p = self.payload(edges=[{"src": "a", "dst": "zz"}])
        assert "RA108" in codes(check_graph_payload(p))

    def test_duplicate_node_and_edge_are_ra108(self):
        p = self.payload(
            nodes=[{"id": "a"}, {"id": "a"}],
            edges=[{"src": "a", "dst": "a"}, {"src": "a", "dst": "a"}],
        )
        assert codes(check_graph_payload(p)).count("RA108") == 2


class TestArchRules:
    def test_healthy_machine_with_matched_graph_is_quiet(self, figure1):
        arch = make_architecture("mesh", 4)
        assert check_arch(arch, figure1) == []

    def test_surplus_pes_are_ra204(self, tiny_loop):
        arch = make_architecture("hypercube", 8)
        assert "RA204" in codes(check_arch(arch, tiny_loop))

    def test_degraded_diameter_blowup_is_ra205(self):
        # cutting a ring turns it into a line: diameter doubles
        ring = make_architecture("ring", 6)
        cut = DegradedTopology(ring, failed_links=((0, 5),))
        assert "RA205" in codes(check_arch(cut))

    def test_comm_blowup_is_ra203(self):
        g = CSDFG("heavy")
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_edge("a", "b", 1, 50)  # one 50-word message, 2 cs of work
        arch = make_architecture("linear", 4)
        assert "RA203" in codes(check_arch(arch, g))


class TestBuildArchitecture:
    def test_builds_healthy(self):
        arch, diags = build_architecture("mesh", 4)
        assert arch is not None and diags == []

    def test_kind_pes_shorthand(self):
        arch, _ = build_architecture("ring:6", 99)
        assert arch.num_pes == 6

    def test_unknown_kind_is_ra202(self):
        arch, diags = build_architecture("torus", 4)
        assert arch is None and codes(diags) == ["RA202"]

    def test_unsupported_size_is_ra202(self):
        arch, diags = build_architecture("hypercube", 6)
        assert arch is None and codes(diags) == ["RA202"]

    def test_disconnecting_failure_is_ra201(self):
        # failing the middle PE of a 3-PE line strands the endpoints
        arch, diags = build_architecture("linear", 3, failed_pes=(1,))
        assert arch is None and codes(diags) == ["RA201"]

    def test_survivable_failure_builds_degraded(self):
        arch, diags = build_architecture("mesh", 4, failed_pes=(3,))
        assert isinstance(arch, DegradedTopology) and diags == []


class TestConfigAndBounds:
    def test_config_warnings(self):
        cfg = CycloConfig(max_iterations=0, deadline_seconds=0)
        assert codes(check_config(cfg)) == ["RA302", "RA303"]

    def test_default_config_is_quiet(self):
        assert check_config(CycloConfig()) == []

    def test_infeasible_target_is_ra301(self, figure1, mesh2x2):
        found = check_target_length(figure1, mesh2x2, None, 1)
        assert codes(found) == ["RA301", "RA305"]

    def test_feasible_target_reports_only_the_bound(self, figure1, mesh2x2):
        found = check_target_length(figure1, mesh2x2, None, 100)
        assert codes(found) == ["RA305"]


class TestAnalyzeInputs:
    def test_clean_pair(self, figure1, mesh2x2):
        report = analyze_inputs(figure1, mesh2x2)
        assert report.ok and report.errors == []

    def test_report_aggregates_across_families(self, mesh2x2):
        g = CSDFG("bad")
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_edge("a", "b", 0, 1)
        g.add_edge("b", "a", 0, 1)
        g.add_node("ghost", 1)
        report = analyze_inputs(g, mesh2x2, target_length=1)
        assert not report.ok
        assert {"RA101", "RA103"} <= set(report.codes())

    def test_analyzer_rejects_what_the_optimizer_would(self, mesh2x2):
        # the tentpole acceptance property, in miniature: a target below
        # the provable bound is rejected statically
        graph = make_workload("biquad4")
        report = analyze_inputs(graph, mesh2x2, target_length=1)
        assert "RA301" in report.codes() and not report.ok

    def test_exit_codes(self):
        clean = AnalysisReport()
        clean.add(make("RA305", "bound"))
        assert clean.exit_code() == 0
        warned = AnalysisReport()
        warned.add(make("RA103", "dead"))
        assert warned.exit_code() == 0
        assert warned.exit_code(strict=True) == 1
        failed = AnalysisReport()
        failed.add(make("RA101", "cycle"))
        assert failed.exit_code() == 1 and failed.exit_code(strict=True) == 1


class TestLoadGraphInput:
    def test_workload_name(self):
        graph, diags = load_graph_input("fir8")
        assert graph is not None and diags == []

    def test_unknown_spec_is_ra108(self):
        graph, diags = load_graph_input("no-such-workload")
        assert graph is None and codes(diags) == ["RA108"]

    def test_json_file(self, tmp_path, figure1):
        import json

        path = tmp_path / "g.json"
        path.write_text(json.dumps(to_json(figure1)))
        graph, diags = load_graph_input(str(path))
        assert graph is not None and diags == []
        assert graph.num_nodes == figure1.num_nodes

    def test_bad_json_file_is_ra108(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        graph, diags = load_graph_input(str(path))
        assert graph is None and codes(diags) == ["RA108"]

    def test_out_of_domain_payload_becomes_coded_diagnostics(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro-csdfg",
            "nodes": [{"id": "a", "time": 0}],
            "edges": [],
        }))
        graph, diags = load_graph_input(str(path))
        assert graph is None and codes(diags) == ["RA105"]
