"""Experiment EXT-RESILIENCE: repair cost vs from-scratch rescheduling.

After a PE failure a degraded machine needs a new legal schedule.  The
bench compares the local evacuate-and-remap repair against a full
cyclo-compaction from scratch on the surviving topology, recording
both the wall-clock cost and the schedule-length regression of each.
The observed worst-case local-repair regression is the bound quoted in
``docs/resilience.md``.
"""

import time

from _report import write_report

from repro.arch import make_architecture
from repro.core import CycloConfig, cyclo_compact
from repro.resilience import PEFault, repair_schedule
from repro.schedule import collect_violations
from repro.workloads import make_workload

CFG = CycloConfig(max_iterations=40, validate_each_step=False)

PAIRS = [
    ("figure7", "mesh"),
    ("figure7", "hypercube"),
    ("biquad4", "ring"),
    ("diffeq", "complete"),
]


def _cases():
    for workload, kind in PAIRS:
        graph = make_workload(workload)
        arch = make_architecture(kind, 8)
        result = cyclo_compact(graph, arch, config=CFG)
        used = sorted(
            {result.schedule.placement(v).pe for v in result.graph.nodes()}
        )
        yield workload, kind, result.graph, arch, result.schedule, used[0]


def test_bench_repair_vs_scratch(benchmark):
    cases = list(_cases())

    def run():
        rows = []
        for workload, kind, graph, arch, schedule, victim in cases:
            t0 = time.perf_counter()
            rep = repair_schedule(graph, arch, schedule, [PEFault(victim)])
            repair_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            scratch = cyclo_compact(graph, rep.degraded, config=CFG)
            scratch_s = time.perf_counter() - t0
            rows.append(
                (workload, kind, rep, repair_s, scratch.final_length,
                 scratch_s)
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = []
    worst = 1.0
    for workload, kind, rep, repair_s, scratch_len, scratch_s in rows:
        assert collect_violations(rep.graph, rep.degraded, rep.schedule) == []
        worst = max(worst, rep.regression)
        speedup = scratch_s / repair_s if repair_s else float("inf")
        lines.append(
            f"{workload:9s} {kind:9s} {rep.strategy:11s} "
            f"L {rep.original_length:3d} -> {rep.repaired_length:3d} "
            f"({rep.regression:4.2f}x)  scratch L {scratch_len:3d}  "
            f"repair {repair_s * 1e3:7.1f} ms vs scratch "
            f"{scratch_s * 1e3:7.1f} ms ({speedup:4.1f}x faster)"
        )
    lines.append(f"worst repair regression observed: {worst:.2f}x")
    write_report("resilience_repair", "\n".join(lines), host_timed=True)
    # the configurable default budget (1.5x) really is an upper bound:
    # repair falls back to re-optimisation rather than exceed it
    for _, _, rep, _, _, _ in rows:
        assert rep.regression <= 1.5 or rep.strategy == "reoptimized"


def test_bench_repair_speed(benchmark):
    """Steady-state cost of one local PE-failure repair."""
    workload, kind, graph, arch, schedule, victim = next(_cases())
    rep = benchmark(
        lambda: repair_schedule(graph, arch, schedule, [PEFault(victim)])
    )
    assert collect_violations(rep.graph, rep.degraded, rep.schedule) == []
