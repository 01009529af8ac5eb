"""Per-phase profiling: aggregate span events into a time breakdown.

The optimiser's phase structure (see the instrumentation in
:mod:`repro.core`) is::

    cyclo_compact
      startup            (once)
      pass[i]
        rotate
        remap
        validate         (only with validate_each_step)
      validate           (once: the returned schedule is certified)

:func:`phase_breakdown` charges each phase its **total** time across a
recording, expresses it as a percentage of the root span(s), and adds
an explicit ``other`` row for uninstrumented driver time — so the rows
always sum to ~100% and nothing hides in the gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["PhaseRow", "phase_breakdown", "format_breakdown"]

DEFAULT_PHASES = ("startup", "rotate", "remap", "validate")


@dataclass(frozen=True)
class PhaseRow:
    """One aggregated row of the per-phase breakdown."""

    phase: str
    calls: int
    total_ns: int
    percent: float

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


def phase_breakdown(
    span_events: Sequence[dict],
    *,
    phases: Sequence[str] = DEFAULT_PHASES,
    root: str = "cyclo_compact",
) -> list[PhaseRow]:
    """Aggregate ``span_events`` into per-phase totals.

    The percentage base is the summed duration of every ``root`` span
    (falling back to the summed top-level spans, then to the phase sum
    itself, when no root was recorded).  Returns one row per phase that
    occurred, plus an ``other`` row for the remainder of the root time.
    """
    spans = [e for e in span_events if e.get("type") == "span"]
    totals = {name: 0 for name in phases}
    calls = {name: 0 for name in phases}
    root_total = 0
    root_seen = False
    top_level_total = 0
    for e in spans:
        name = e["name"]
        if name in totals:
            totals[name] += e["dur_ns"]
            calls[name] += 1
        if name == root:
            root_total += e["dur_ns"]
            root_seen = True
        if e.get("depth", 0) == 0:
            top_level_total += e["dur_ns"]
    phase_sum = sum(totals.values())
    base = root_total if root_seen else (top_level_total or phase_sum)
    if base <= 0:
        return []
    rows = [
        PhaseRow(
            phase=name,
            calls=calls[name],
            total_ns=totals[name],
            percent=100.0 * totals[name] / base,
        )
        for name in phases
        if calls[name]
    ]
    other = base - sum(r.total_ns for r in rows)
    if other > 0:
        rows.append(
            PhaseRow(
                phase="other",
                calls=0,
                total_ns=other,
                percent=100.0 * other / base,
            )
        )
    return rows


def format_breakdown(rows: Sequence[PhaseRow]) -> str:
    """Fixed-width table, phases in recorded order, percentages last."""
    if not rows:
        return "(no spans recorded)"
    width = max(len(r.phase) for r in rows)
    lines = [f"{'phase':<{width}}  {'calls':>6}  {'time (ms)':>10}  {'%':>6}"]
    for r in rows:
        calls = str(r.calls) if r.calls else "-"
        lines.append(
            f"{r.phase:<{width}}  {calls:>6}  {r.total_ms:>10.3f}  "
            f"{r.percent:>5.1f}%"
        )
    total_ms = sum(r.total_ms for r in rows)
    total_pct = sum(r.percent for r in rows)
    lines.append(
        f"{'total':<{width}}  {'':>6}  {total_ms:>10.3f}  {total_pct:>5.1f}%"
    )
    return "\n".join(lines)
