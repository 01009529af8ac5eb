"""Shared reporting helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures and, in
addition to the pytest-benchmark timing, writes the reproduced rows to
``benchmarks/out/<name>.txt`` so they can be diffed against the paper's
published values (see EXPERIMENTS.md).

Reports that carry host timings (``host_timed=True``) are tracked only
as regenerated on a full run.  Quick mode (``BENCH_QUICK=1``, the CI
smoke mode) writes them to the untracked ``benchmarks/out/quick/``
instead, so a smoke run leaves the tree as it found it.  The
deterministic paper tables are written in place in both modes.
"""

from __future__ import annotations

import os
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
QUICK_DIR = OUT_DIR / "quick"

#: ``BENCH_QUICK=1``: the smoke mode CI runs.
QUICK = os.environ.get("BENCH_QUICK") == "1"


def write_report(name: str, text: str, *, host_timed: bool = False) -> Path:
    """Write (and echo) one reproduced table."""
    out_dir = QUICK_DIR if host_timed and QUICK else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    path.write_text(text.rstrip() + "\n")
    print(f"\n[{name}]\n{text}")
    return path
