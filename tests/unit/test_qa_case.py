"""Unit tests for reproducer-case serialization and replay."""

import pytest

from repro.core import CycloConfig
from repro.errors import QAError
from repro.qa import ArchSpec, ReproCase, load_cases, replay_case, sample_graph

CFG = CycloConfig(max_iterations=2, validate_each_step=False)


def _case(prop="schedules-legal", seed=3):
    return ReproCase(
        graph=sample_graph(seed),
        arch_spec=ArchSpec("ring", 3),
        config=CFG,
        prop=prop,
        seed=seed,
        note="unit test",
    )


class TestRoundTrip:
    def test_json_roundtrip_replays_identically(self):
        case = _case()
        again = ReproCase.from_json(case.to_json())
        assert again.prop == case.prop
        assert again.seed == case.seed
        assert again.arch_spec == case.arch_spec
        assert again.config == case.config
        assert again.graph.structurally_equal(case.graph)
        assert replay_case(again) == replay_case(case) == []

    def test_save_and_load_cases(self, tmp_path):
        for i in range(3):
            _case(seed=i).save(tmp_path / f"case-{i}.json")
        (tmp_path / "notes.txt").write_text("ignored")
        cases = load_cases(tmp_path)
        assert [p.name for p, _ in cases] == [
            "case-0.json", "case-1.json", "case-2.json"
        ]
        assert all(replay_case(c) == [] for _, c in cases)

    def test_load_cases_missing_directory_is_empty(self, tmp_path):
        assert load_cases(tmp_path / "nope") == []


class TestValidation:
    def test_unknown_property_rejected_at_construction(self):
        with pytest.raises(QAError, match="unknown property"):
            _case(prop="not-a-property")

    def test_not_json_rejected(self):
        with pytest.raises(QAError, match="not valid JSON"):
            ReproCase.from_json("{")

    def test_wrong_format_rejected(self):
        with pytest.raises(QAError, match="repro-qa-case"):
            ReproCase.from_json('{"format": "something-else"}')

    def test_wrong_version_rejected(self):
        with pytest.raises(QAError, match="version"):
            ReproCase.from_json(
                '{"format": "repro-qa-case", "version": 999}'
            )

    def test_removed_config_key_rejected(self):
        # a reproducer written before the key was removed from
        # CycloConfig fails typed, naming the key
        payload = _case().to_dict()
        payload["config"]["patience"] = None
        with pytest.raises(QAError, match="patience"):
            ReproCase.from_dict(payload)


class TestReplayTotality:
    def test_exceptions_become_violations(self, monkeypatch):
        case = _case()
        monkeypatch.setattr(
            type(case), "run",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        violations = replay_case(case)
        assert violations == ["[schedules-legal] raised RuntimeError: boom"]

    def test_describe_mentions_everything(self):
        case = _case()
        text = case.describe()
        assert "schedules-legal" in text
        assert "ring" in text and "unit test" in text
