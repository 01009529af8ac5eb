#!/usr/bin/env python3
"""Scheduling on a user-defined architecture.

Builds an irregular multi-board interconnect (two 4-PE clusters joined
by a single bridge link) from an explicit adjacency, saves/reloads it
as JSON, and schedules a communication-heavy fork-join kernel on it —
showing how the optimiser keeps chatty tasks on one side of the bridge.

Run:  python examples/custom_topology.py
"""

import tempfile
from pathlib import Path

from repro import cyclo_compact, render_gantt
from repro.arch import (
    NoContention,
    contended_cost,
    from_adjacency,
    load_architecture,
    save_architecture,
)
from repro.core import CycloConfig
from repro.graph import fork_join_csdfg


def main() -> None:
    # two completely-connected 4-PE clusters (0-3 and 4-7) with a
    # single bridge link 3 -- 4
    adjacency = {
        0: [1, 2, 3],
        1: [2, 3],
        2: [3],
        4: [5, 6, 7],
        5: [6, 7],
        6: [7],
        3: [4],  # the bridge
    }
    arch = from_adjacency(adjacency, name="dual-cluster")
    print(f"architecture {arch.name}: {arch.num_pes} PEs, "
          f"diameter {arch.diameter} (via the bridge)")

    # persist / reload round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dual_cluster.json"
        save_architecture(arch, path)
        arch = load_architecture(path)
        print(f"architecture round-tripped through {path.name}")

    # a wide fork-join kernel with chunky messages
    graph = fork_join_csdfg(6, stages=2, time=2, volume=3, loop_delay=2)
    result = cyclo_compact(
        graph, arch, config=CycloConfig(max_iterations=40, validate_each_step=False)
    )
    print(f"\nschedule: {result.initial_length} -> {result.final_length} "
          f"control steps")
    print(render_gantt(result.schedule, title="compacted schedule:"))

    report = contended_cost(
        result.graph, arch, result.schedule.processor_map(), NoContention()
    )
    bridge = report.loads.get((3, 4), 0)
    print(f"\nper-iteration traffic over the bridge link (3,4): {bridge}")
    print(f"total store-and-forward traffic: {report.base_cost}")
    print("the optimiser clusters communicating tasks to avoid the bridge.")


if __name__ == "__main__":
    main()
