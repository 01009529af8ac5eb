#!/usr/bin/env python3
"""Architecture exploration: how topology shapes the schedule.

For one workload (the reconstructed 19-node graph of the paper's
Figure 7) this example sweeps a range of topologies — including ones
beyond the paper's five (torus, star, tree) — and communication models
(store-and-forward vs wormhole vs free), reporting the compacted
schedule length, utilisation, and communication traffic for each.

Run:  python examples/architecture_explorer.py
"""

from repro import cyclo_compact
from repro.arch import (
    BalancedTree,
    CompletelyConnected,
    Hypercube,
    LinearArray,
    Mesh2D,
    NoContention,
    Ring,
    Star,
    StoreAndForwardModel,
    Torus2D,
    WormholeModel,
    ZeroCommModel,
    contended_cost,
)
from repro.core import CycloConfig
from repro.schedule import compute_metrics
from repro.workloads import figure7_csdfg

CFG = CycloConfig(max_iterations=60, validate_each_step=False)


def topology_sweep() -> None:
    graph = figure7_csdfg()
    topologies = [
        CompletelyConnected(8),
        Hypercube(3),
        Torus2D(3, 3),
        Mesh2D(2, 4),
        Ring(8),
        Star(8),
        LinearArray(8),
        BalancedTree(2, 2),
    ]
    print(f"{'architecture':14s} {'PEs':>3s} {'diam':>4s} "
          f"{'init':>4s} {'after':>5s} {'util':>5s} {'comm':>4s} {'hotlink':>7s}")
    for arch in topologies:
        result = cyclo_compact(graph, arch, config=CFG)
        metrics = compute_metrics(result.graph, arch, result.schedule)
        loads = contended_cost(
            result.graph, arch, result.schedule.processor_map(),
            NoContention(),
        )
        print(
            f"{arch.name:14s} {arch.num_pes:3d} {arch.diameter:4d} "
            f"{result.initial_length:4d} {result.final_length:5d} "
            f"{metrics.utilization:5.2f} {metrics.comm_cost:4d} "
            f"{loads.max_link_load:7d}"
        )


def comm_model_sweep() -> None:
    graph = figure7_csdfg()
    mesh = Mesh2D(2, 4)
    print(f"\n{'comm model':18s} {'init':>4s} {'after':>5s}")
    for model in (StoreAndForwardModel(), WormholeModel(), ZeroCommModel()):
        arch = mesh.with_comm_model(model)
        result = cyclo_compact(graph, arch, config=CFG)
        print(f"{model.name:18s} {result.initial_length:4d} "
              f"{result.final_length:5d}")


def main() -> None:
    print("== topology sweep (19-node workload, store-and-forward) ==")
    topology_sweep()
    print("\n== communication model sweep (2x4 mesh) ==")
    comm_model_sweep()
    print("\nricher connectivity -> shorter schedules; the hotlink column")
    print("shows the congestion a single-channel interconnect would see")
    print("(the paper assumes multiple channels, §3).")


if __name__ == "__main__":
    main()
