"""Hotspot stats and phase diffs."""

import pytest

from repro.obs.aggregate import (
    DiffRow,
    diff_tables,
    format_diff,
    hotspot_table,
    percentile,
    phase_totals,
    record_phases,
    trace_stats,
)
from repro.obs.history import RunRecord


def _span_event(name, start, dur, depth):
    return {
        "type": "span",
        "name": name,
        "start_ns": start,
        "dur_ns": dur,
        "depth": depth,
        "attrs": {},
    }


def _record(duration, *, kind="gate", workload="w", arch="a", cfg="h",
            phases=None):
    return RunRecord(
        kind=kind, workload=workload, arch=arch, config_hash=cfg,
        engine_version="1.0.0", timestamp=0.0,
        duration_seconds=duration, phases=phases or {},
    )


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99

    def test_empty(self):
        assert percentile([], 50) is None

    def test_domain(self):
        with pytest.raises(ValueError):
            percentile([1], 0)


class TestTraceStats:
    EVENTS = [
        _span_event("root", 0, 100, 0),
        _span_event("a", 0, 60, 1),
        _span_event("a", 60, 30, 1),
    ]

    def test_ranked_by_self_time(self):
        stats = trace_stats(self.EVENTS)
        assert [s.name for s in stats] == ["a", "root"]
        a = stats[0]
        assert a.calls == 2
        assert a.self_ns == 90
        assert a.p50_ns == 30 and a.p99_ns == 60

    def test_hotspot_table_renders(self):
        text = hotspot_table(self.EVENTS)
        assert "| span |" in text and "| a |" in text

    def test_hotspot_table_empty(self):
        assert hotspot_table([]) == "(no spans recorded)"

    def test_hotspot_table_limit(self):
        text = hotspot_table(self.EVENTS, limit=1)
        assert "| a |" in text and "| root |" not in text


class TestDiff:
    def test_phase_totals(self):
        totals = phase_totals([
            _span_event("remap", 0, 2_000_000_000, 1),
            _span_event("remap", 0, 1_000_000_000, 1),
        ])
        assert totals == {"remap": pytest.approx(3.0)}

    def test_diff_union_of_phases(self):
        rows = diff_tables({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0})
        assert [r.phase for r in rows] == ["a", "b", "c"]
        by = {r.phase: r for r in rows}
        assert by["b"].delta_seconds == pytest.approx(1.0)
        assert by["b"].ratio == pytest.approx(1.5)
        assert by["c"].ratio is None  # new phase

    def test_format_diff(self):
        text = format_diff(
            [DiffRow("remap", 1.0, 2.0)], a_label="old", b_label="new"
        )
        assert "| remap |" in text and "old" in text and "2.00" in text
        assert format_diff([]) == "(nothing to compare)"

    def test_record_phases_averages_window(self):
        recs = [
            _record(1.0, phases={"remap": 0.5}),
            _record(3.0, phases={"remap": 1.5}),
        ]
        assert record_phases(recs) == {
            "remap": pytest.approx(1.0),
            "total": pytest.approx(2.0),
        }
        assert record_phases([]) == {}

