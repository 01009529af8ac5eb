"""Seeded inputs of the four benchmark workloads.

Every graph and machine the scheduler sees is built here from the
workload name and the ``--seed``; the engine receives only these
objects.  The parameters (sizes, machines, pass budgets, contention
model) are pinned in this file, so an engine change cannot move the
benchmark by editing a table of its own.

Each workload draws enough instances from its seed that its aggregate
metrics barely depend on which seed was drawn: a metric that moved by
10% between two seeds could not gate a 10% regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch import make_architecture
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.graph.csdfg import CSDFG
from repro.graph.generators import chain_csdfg, fork_join_csdfg, ring_csdfg
from repro.qa import sample_sized_graph
from repro.workloads import figure7_csdfg

__all__ = ["WORKLOADS", "Cell", "build", "describe"]

WORKLOADS = ("paper19", "layered1k", "large-graphs", "contended")

#: Machines of the paper's Figure-7 study: 8 PEs where the topology
#: allows it, 9 for the 3x3 torus and 7 for the two-level binary tree.
PAPER_TOPOLOGIES = (
    ("complete", 8), ("hypercube", 8), ("linear", 8), ("mesh", 8),
    ("ring", 8), ("star", 8), ("torus", 9), ("tree", 7),
)


@dataclass(frozen=True)
class Cell:
    """One scheduling input: a graph on a machine under a pass budget.

    ``contended`` cells run the two-phase contention-aware pipeline;
    the others run plain cyclo-compaction.
    """

    label: str
    graph: CSDFG
    arch: Architecture
    config: CycloConfig
    contended: bool = False


def _config(passes: int, *, contended: bool = False) -> CycloConfig:
    if contended:
        return CycloConfig(
            max_iterations=passes,
            validate_each_step=False,
            contention_model="serialized",
            contention_weight=2,
            contention_rounds=1,
        )
    return CycloConfig(max_iterations=passes, validate_each_step=False)


def _reweighted(graph: CSDFG, rng: random.Random, max_weight: int) -> CSDFG:
    """``graph`` with every node time and edge volume redrawn from
    ``1..max_weight``.  The structural generators give every node the
    same weights, so a seed would otherwise pick one of nine machines'
    worth of work for the whole graph; per-node draws average out."""
    out = CSDFG(graph.name)
    for v in graph.nodes():
        out.add_node(v, rng.randint(1, max_weight))
    for e in graph.edges():
        out.add_edge(e.src, e.dst, e.delay, rng.randint(1, max_weight))
    return out


def _layered(rng: random.Random, size: int) -> CSDFG:
    return sample_sized_graph("layered", size, seed=rng.randrange(1 << 30))


def build(workload: str, seed: int, *, tiny: bool = False) -> list[Cell]:
    """The cells of ``workload`` for ``seed``, in a fixed order.

    ``tiny=True`` keeps each workload's shape (families, machines,
    pipeline) at a size that schedules in milliseconds, for the
    benchmark's own smoke tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper19":
        graph = figure7_csdfg()
        topologies = PAPER_TOPOLOGIES[:2] if tiny else PAPER_TOPOLOGIES
        passes = 5 if tiny else 60
        return [
            Cell(
                f"figure7@{kind}{pes}", graph,
                make_architecture(kind, pes), _config(passes),
            )
            for kind, pes in topologies
        ]
    if workload == "layered1k":
        size, graphs = (40, 2) if tiny else (1000, 12)
        machines = (("mesh", 16, 40), ("complete", 64, 25))
        cells = []
        for i in range(graphs):
            graph = _layered(rng, size)
            for kind, pes, passes in machines:
                cells.append(Cell(
                    f"layered{size}#{i}@{kind}{pes}", graph,
                    make_architecture(kind, pes),
                    _config(4 if tiny else passes),
                ))
        return cells
    if workload == "large-graphs":
        scale = 50 if tiny else 1
        specs = (
            # label, structure, machine, passes
            ("fork-join", fork_join_csdfg(
                498 // scale + 1, stages=2, loop_delay=2), "hypercube", 12),
            ("ring", ring_csdfg(2500 // scale), "torus", 5),
            ("chain", chain_csdfg(10000 // scale, loop_delay=2), "ring", 6),
        )
        return [
            Cell(
                f"{family}-{graph.num_nodes}@{kind}16",
                _reweighted(graph, rng, 3),
                make_architecture(kind, 16),
                _config(2 if tiny else passes),
            )
            for family, graph, kind, passes in specs
        ]
    # contended
    size, graphs = (40, 2) if tiny else (1000, 12)
    arch = make_architecture("circulant", 16)
    return [
        Cell(
            f"layered{size}#{i}@circulant16+c2", _layered(rng, size), arch,
            _config(3 if tiny else 12, contended=True), contended=True,
        )
        for i in range(graphs)
    ]


def describe(cells: list[Cell]) -> bytes:
    """Byte-exact serialisation of the inputs (graph structure, weights,
    machine and configuration), for input-stability checks."""
    lines = []
    for cell in cells:
        g = cell.graph
        lines.append(f"cell {cell.label} {cell.arch.name} {cell.config.to_dict()}")
        lines.extend(f"n {v} {g.time(v)}" for v in g.nodes())
        lines.extend(f"e {e.src} {e.dst} {e.delay} {e.volume}" for e in g.edges())
    return "\n".join(lines).encode()
