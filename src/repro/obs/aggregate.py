"""Aggregation over traces and run history: hotspots, diffs, regressions.

Three consumers share this module:

* ``repro obs report`` — per-span-name hotspot tables (calls, total,
  self time, latency percentiles) over one or many trace files;
* ``repro obs diff`` — phase-by-phase comparison of two runs (traces)
  or two history windows;
* ``repro obs regressions`` — baseline fitting over the run-history
  store and slowdown detection.

Baselines are deliberately simple and robust: the **median** duration
of the prior runs in a group.  Runs are only grouped when their
``(kind, workload, arch, config_hash)`` keys match exactly, so a config
or topology change starts a fresh baseline instead of poisoning an old
one (provenance stamping exists precisely for this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.obs.collapse import self_times
from repro.obs.history import HistoryError, RunRecord

__all__ = [
    "percentile",
    "SpanStats",
    "trace_stats",
    "hotspot_table",
    "phase_totals",
    "record_phases",
    "trace_file_span_events",
    "format_history_summary",
    "DiffRow",
    "diff_tables",
    "format_diff",
    "Regression",
    "fit_baselines",
    "detect_regressions",
    "format_regressions",
]


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile (``q`` in ``(0, 100]``); ``None`` when
    ``values`` is empty.  Matches ``Histogram.percentile``."""
    if not values:
        return None
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class SpanStats:
    """Aggregated statistics for one span name."""

    name: str
    calls: int
    total_ns: int
    self_ns: int
    p50_ns: int
    p95_ns: int
    p99_ns: int

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6


def trace_stats(span_events: Sequence[dict]) -> list[SpanStats]:
    """Per-span-name statistics over a recording, ranked by self time
    (descending), ties broken by name for reproducible output."""
    durations: dict[str, list[int]] = {}
    totals: dict[str, int] = {}
    selfs: dict[str, int] = {}
    for stack, row in self_times(span_events).items():
        name = stack[-1]
        selfs[name] = selfs.get(name, 0) + row["self_ns"]
        totals[name] = totals.get(name, 0) + row["total_ns"]
    for e in span_events:
        if e.get("type") == "span":
            durations.setdefault(e["name"], []).append(e["dur_ns"])
    out = []
    for name, durs in durations.items():
        out.append(SpanStats(
            name=name,
            calls=len(durs),
            total_ns=totals.get(name, sum(durs)),
            self_ns=selfs.get(name, 0),
            p50_ns=int(percentile(durs, 50)),
            p95_ns=int(percentile(durs, 95)),
            p99_ns=int(percentile(durs, 99)),
        ))
    out.sort(key=lambda s: (-s.self_ns, s.name))
    return out


def hotspot_table(span_events: Sequence[dict], *, limit: int = 0) -> str:
    """Markdown hotspot table ranked by self time."""
    stats = trace_stats(span_events)
    if limit > 0:
        stats = stats[:limit]
    if not stats:
        return "(no spans recorded)"
    lines = [
        "| span | calls | self (ms) | total (ms) | p50 (ms) | p95 (ms) "
        "| p99 (ms) |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for s in stats:
        lines.append(
            f"| {s.name} | {s.calls} | {s.self_ms:.3f} | {s.total_ms:.3f} "
            f"| {s.p50_ns / 1e6:.3f} | {s.p95_ns / 1e6:.3f} "
            f"| {s.p99_ns / 1e6:.3f} |"
        )
    return "\n".join(lines)


def phase_totals(span_events: Sequence[dict]) -> dict[str, float]:
    """Total seconds per span name (``name -> seconds``)."""
    out: dict[str, float] = {}
    for e in span_events:
        if e.get("type") == "span":
            out[e["name"]] = out.get(e["name"], 0.0) + e["dur_ns"] / 1e9
    return out


def record_phases(records: Sequence[RunRecord]) -> dict[str, float]:
    """Mean seconds per phase over a window of history records (the
    window's ``duration_seconds`` mean rides along as ``"total"``)."""
    if not records:
        return {}
    out: dict[str, float] = {}
    for rec in records:
        for name, seconds in rec.phases.items():
            out[name] = out.get(name, 0.0) + float(seconds)
    averaged = {name: total / len(records) for name, total in out.items()}
    averaged["total"] = sum(
        r.duration_seconds for r in records
    ) / len(records)
    return averaged


def trace_file_span_events(path: str | Path) -> list[dict]:
    """Load a Chrome trace-event JSON (as written by ``--trace`` /
    :func:`repro.obs.export.write_chrome_trace`) back into sink-shaped
    span events.

    The Chrome format drops the recorded nesting depth, so depth is
    reconstructed from interval containment on the optimiser track
    (pid 1) — parents sort before their children at equal start times
    because they last longer.
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HistoryError(f"cannot read trace {target}: {exc}") from exc
    raw = payload.get("traceEvents", []) if isinstance(payload, dict) else payload
    slices = [
        e for e in raw
        if isinstance(e, dict) and e.get("ph") == "X" and e.get("pid") == 1
    ]
    spans: list[dict] = []
    open_ends: list[int] = []  # end_ns of currently enclosing spans
    for e in sorted(slices, key=lambda e: (e["ts"], -e["dur"])):
        start = round(e["ts"] * 1000)
        dur = round(e["dur"] * 1000)
        while open_ends and start >= open_ends[-1]:
            open_ends.pop()
        spans.append({
            "type": "span",
            "name": e["name"],
            "start_ns": start,
            "dur_ns": dur,
            "depth": len(open_ends),
            "attrs": dict(e.get("args") or {}),
        })
        open_ends.append(start + dur)
    return spans


def format_history_summary(records: Sequence[RunRecord]) -> str:
    """Markdown per-group summary of a history window: run counts and
    duration percentiles (grouped by provenance key)."""
    if not records:
        return "(no history records)"
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.key(), []).append(rec)
    lines = [
        "| kind | workload | arch | runs | p50 (s) | p95 (s) | latest (s) |",
        "|---|---|---|---:|---:|---:|---:|",
    ]
    for key in sorted(groups):
        group = groups[key]
        durations = [r.duration_seconds for r in group]
        kind, workload, arch, _cfg = key
        lines.append(
            f"| {kind} | {workload} | {arch} | {len(group)} "
            f"| {percentile(durations, 50):.6f} "
            f"| {percentile(durations, 95):.6f} "
            f"| {durations[-1]:.6f} |"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class DiffRow:
    """One phase compared across two runs/windows."""

    phase: str
    a_seconds: float
    b_seconds: float

    @property
    def delta_seconds(self) -> float:
        return self.b_seconds - self.a_seconds

    @property
    def ratio(self) -> float | None:
        """``b / a`` (``None`` when the phase is new — absent in A)."""
        return self.b_seconds / self.a_seconds if self.a_seconds else None


def diff_tables(
    a: dict[str, float], b: dict[str, float]
) -> list[DiffRow]:
    """Phase-by-phase comparison; union of phases, sorted by name."""
    return [
        DiffRow(phase=name, a_seconds=a.get(name, 0.0), b_seconds=b.get(name, 0.0))
        for name in sorted(set(a) | set(b))
    ]


def format_diff(
    rows: Sequence[DiffRow], *, a_label: str = "A", b_label: str = "B"
) -> str:
    """Markdown table of a phase diff."""
    if not rows:
        return "(nothing to compare)"
    lines = [
        f"| phase | {a_label} (s) | {b_label} (s) | delta (s) | ratio |",
        "|---|---:|---:|---:|---:|",
    ]
    for r in rows:
        ratio = f"{r.ratio:.3f}" if r.ratio is not None else "new"
        lines.append(
            f"| {r.phase} | {r.a_seconds:.6f} | {r.b_seconds:.6f} "
            f"| {r.delta_seconds:+.6f} | {ratio} |"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Regression:
    """One run group whose latest run exceeds the fitted baseline."""

    kind: str
    workload: str
    arch: str
    config_hash: str
    baseline_seconds: float
    latest_seconds: float
    threshold: float
    samples: int  # baseline sample count (prior runs)

    @property
    def ratio(self) -> float:
        return (
            self.latest_seconds / self.baseline_seconds
            if self.baseline_seconds
            else float("inf")
        )


def fit_baselines(
    records: Sequence[RunRecord],
) -> dict[tuple, dict]:
    """Per-group baseline fit: ``key -> {"baseline", "latest",
    "samples"}``.

    Within each ``(kind, workload, arch, config_hash)`` group the
    records stay in append order; the last record is the candidate
    under test and the baseline is the **median** of all prior runs.
    Groups with fewer than two records fit no baseline (``baseline``
    is ``None``) — a first run can never regress against itself.
    """
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.key(), []).append(rec)
    out: dict[tuple, dict] = {}
    for key, group in groups.items():
        latest = group[-1]
        prior = [r.duration_seconds for r in group[:-1]]
        out[key] = {
            "baseline": percentile(prior, 50) if prior else None,
            "latest": latest.duration_seconds,
            "samples": len(prior),
        }
    return out


def detect_regressions(
    records: Sequence[RunRecord],
    *,
    threshold: float = 1.3,
    min_seconds: float = 0.0,
) -> list[Regression]:
    """Flag groups whose latest run is ``> threshold x`` the baseline.

    ``min_seconds`` suppresses noise on sub-millisecond runs: a group
    is only flagged when the latest duration also exceeds it.  Sorted
    by descending slowdown ratio.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    found: list[Regression] = []
    for key, fit in fit_baselines(records).items():
        baseline = fit["baseline"]
        latest = fit["latest"]
        if baseline is None or baseline <= 0:
            continue
        if latest > threshold * baseline and latest >= min_seconds:
            kind, workload, arch, cfg = key
            found.append(Regression(
                kind=kind,
                workload=workload,
                arch=arch,
                config_hash=cfg,
                baseline_seconds=baseline,
                latest_seconds=latest,
                threshold=threshold,
                samples=fit["samples"],
            ))
    found.sort(key=lambda r: -r.ratio)
    return found


def format_regressions(
    found: Sequence[Regression], *, checked: int
) -> str:
    """Human-readable summary for the CLI / CI log."""
    if not found:
        return f"no regressions across {checked} run group(s)"
    lines = [
        f"{len(found)} regression(s) across {checked} run group(s):",
        "| kind | workload | arch | baseline (s) | latest (s) | ratio "
        "| threshold |",
        "|---|---|---|---:|---:|---:|---:|",
    ]
    for r in found:
        lines.append(
            f"| {r.kind} | {r.workload} | {r.arch} "
            f"| {r.baseline_seconds:.6f} | {r.latest_seconds:.6f} "
            f"| {r.ratio:.2f}x | {r.threshold:.2f}x |"
        )
    return "\n".join(lines)
