"""Experiment EXT-SPEEDUP: fast-path engine vs the reference engine.

Times ``cyclo_compact`` (comm-cost cache, interval-indexed table,
incremental PSL, pruned slot search) against
``reference_cyclo_compact`` (the preserved pre-optimisation engine) on
the 19-node workload across every architecture kind, asserting first
that both engines produce **identical schedules** — the speedup claim
is only meaningful for equivalent output.

Writes ``BENCH_speedup.json`` at the repo root with the per-topology
ratios.  ``BENCH_QUICK=1`` (CI smoke mode) still checks equivalence on
every kind but times only the mesh, with a relaxed threshold, and
writes its record to the untracked ``BENCH_speedup_quick.json`` and its
report to ``benchmarks/out/quick/`` so the committed full-mode records
stay as they are; the full run requires >= 3x on the mesh.
"""

import json
import time
from pathlib import Path

from _report import QUICK, write_report

from repro.arch import ARCHITECTURE_KINDS, make_architecture
from repro.core import CycloConfig, cyclo_compact
from repro.perf.reference import reference_cyclo_compact
from repro.workloads import figure7_csdfg

REPO_ROOT = Path(__file__).resolve().parent.parent

CFG = CycloConfig(max_iterations=60, validate_each_step=False)
BEST_OF = 12

# smallest valid PE count per kind at/around the paper's 8 (the
# Cayley kinds need a factorial count: 3! = 6)
PE_COUNTS = {
    "tree": 7, "torus": 9,
    "cayley-bubble": 6, "cayley-star": 6, "pancake": 6,
}

OUT_JSON = REPO_ROOT / (
    "BENCH_speedup_quick.json" if QUICK else "BENCH_speedup.json"
)


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def test_bench_fastpath_speedup():
    graph = figure7_csdfg()
    repeats = 3 if QUICK else BEST_OF
    rows = []
    for kind in sorted(ARCHITECTURE_KINDS):
        num_pes = PE_COUNTS.get(kind, 8)
        arch = make_architecture(kind, num_pes)

        fast = cyclo_compact(graph, arch, config=CFG)
        ref = reference_cyclo_compact(graph, arch, config=CFG)
        assert fast.schedule.same_placements(ref.schedule), kind
        assert fast.trace == ref.trace, kind
        assert fast.final_length == ref.final_length, kind
        if QUICK and kind != "mesh":
            continue

        t_fast = _best_of(
            lambda: cyclo_compact(graph, arch, config=CFG), repeats
        )
        t_ref = _best_of(
            lambda: reference_cyclo_compact(graph, arch, config=CFG), repeats
        )
        rows.append(
            {
                "arch": kind,
                "num_pes": num_pes,
                "final_length": fast.final_length,
                "fast_seconds": round(t_fast, 6),
                "reference_seconds": round(t_ref, 6),
                "speedup": round(t_ref / t_fast, 3),
            }
        )

    payload = {
        "workload": graph.name,
        "nodes": graph.num_nodes,
        "max_iterations": CFG.max_iterations,
        "best_of": repeats,
        "quick": QUICK,
        "results": rows,
    }
    OUT_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"{r['arch']:>10s} ({r['num_pes']} PEs): "
        f"ref {r['reference_seconds'] * 1000:7.2f}ms / "
        f"fast {r['fast_seconds'] * 1000:7.2f}ms = {r['speedup']:.2f}x"
        for r in rows
    ]
    write_report("fastpath_speedup", "\n".join(lines), host_timed=True)

    by_kind = {r["arch"]: r["speedup"] for r in rows}
    if QUICK:
        assert by_kind["mesh"] > 1.0, by_kind
    else:
        # the PR's acceptance bar: >= 3x on the 19-node mesh cell
        assert by_kind["mesh"] >= 3.0, by_kind
        # every topology must at least profit from the fast path
        assert all(s > 1.0 for s in by_kind.values()), by_kind
