"""Differential test: the closed-form remap slot search vs the cell walk.

:func:`repro.core.remapping._find_spot` finds each PE's best slot from a
few interval-index probes (a crossing of the falling delayed-in bound
and the rising finish/out bound, then one probe on either side of it).
:func:`repro.perf.reference.reference_find_spot` walks every free cell
on a naive cell-dict table and prices every constraint through
``arch.comm_cost``.  On seeded random tables — some stored against a
non-zero origin — and a node with zero-delay and delayed (``dr`` 1–3)
neighbours on both sides plus self-loops, both must return the same
``(pe, cb, duration)`` under both strategies, with and without a cap,
on plain and pipelined PEs.
"""

import random

import pytest

from repro.arch.cache import CommCostCache
from repro.arch.registry import make_architecture
from repro.core.remapping import _find_spot
from repro.graph.csdfg import CSDFG
from repro.obs import InMemorySink, metrics, sink_installed
from repro.perf.reference import ReferenceScheduleTable, reference_find_spot
from repro.schedule.table import ScheduleTable

KINDS = ("linear", "ring", "mesh", "complete", "hypercube")


def _random_case(seed):
    """``(graph, arch, table, ref_table, rng)`` with node ``"v"`` unplaced;
    ``ref_table`` holds the same placements at the same absolute steps."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    if kind == "hypercube":
        num_pes = rng.choice([2, 4, 8])
    else:
        num_pes = rng.randint(3, 6)
    arch = make_architecture(kind, num_pes)
    if rng.random() < 0.3:
        arch = arch.with_time_scales(
            [rng.randint(1, 3) for _ in range(num_pes)]
        )
    graph = CSDFG()
    graph.add_node("v", time=rng.randint(1, 3))
    if rng.random() < 0.4:
        graph.add_edge("v", "v", delay=rng.randint(1, 3))
    table = ScheduleTable(num_pes)
    # placed starts are offset and the table shifted back, so about half
    # the cases store their spans against a non-zero origin
    offset = rng.choice([0, 0, rng.randint(1, 6)])
    for i in range(rng.randint(3, 14)):
        name = f"u{i}"
        graph.add_node(name, time=rng.randint(1, 3))
        roll = rng.random()
        delay = rng.choice([0, 1, 1, 2, 3])
        volume = rng.randint(1, 3)
        if roll < 0.4:
            graph.add_edge(name, "v", delay=delay, volume=volume)
        elif roll < 0.8:
            graph.add_edge("v", name, delay=delay, volume=volume)
        # the rest only occupy cells
        pe = rng.randrange(num_pes)
        duration = graph.time(name) * arch.time_scales[pe]
        start = rng.randint(1, 24) + offset
        if table.is_free(pe, start, duration):
            table.place(name, pe, start, duration)
    if offset:
        table.shift_all(-offset)
    table.set_length(max(table.makespan, rng.randint(0, 26)))
    ref_table = ReferenceScheduleTable(num_pes)
    for p in table.placements():
        ref_table.place(p.node, p.pe, p.start, p.duration, p.occupancy)
    ref_table.set_length(table.length)
    return graph, arch, table, ref_table, rng


@pytest.mark.parametrize("seed", range(300))
def test_find_spot_matches_cell_walk(seed):
    graph, arch, table, ref_table, rng = _random_case(seed)
    comm = CommCostCache.for_graph(arch, graph)
    tail = max(table.length, table.makespan)
    caps = [None, rng.randint(1, tail + 4), rng.randint(tail, tail + 12)]
    for strategy in ("implied", "first-fit"):
        for cap in caps:
            for pipelined in (False, True):
                kwargs = dict(
                    cap=cap, pipelined_pes=pipelined, strategy=strategy
                )
                got = _find_spot(
                    graph, arch, table, "v", comm=comm, **kwargs
                )
                want = reference_find_spot(
                    graph, arch, ref_table, "v", **kwargs
                )
                assert got == want, (seed, strategy, cap, pipelined)


def test_cases_exercise_every_search_branch():
    # the differential test above only pins the search if its cases
    # carry delayed in-edges, zero-delay neighbours and shifted origins
    delayed_in = zero_delay = shifted = 0
    for seed in range(300):
        graph, _arch, table, _ref, _rng = _random_case(seed)
        placed = set(table.nodes())
        delayed_in += any(
            e.delay and e.src in placed for e in graph.in_edges("v")
        )
        zero_delay += any(
            not e.delay and (e.src in placed or e.dst in placed)
            for e in (*graph.in_edges("v"), *graph.out_edges("v"))
        )
        _placements, origin = table.stored_placements()
        shifted += bool(origin and table.num_tasks)
    assert delayed_in > 150
    assert zero_delay > 100
    assert shifted > 50


def test_candidate_slots_at_most_two_per_pe():
    sink = InMemorySink()
    metrics.reset()
    with sink_installed(sink):
        for seed in range(60):
            graph, arch, table, _ref, _rng = _random_case(seed)
            comm = CommCostCache.for_graph(arch, graph)
            _find_spot(graph, arch, table, "v", cap=None, comm=comm)
        counters = metrics.snapshot()["counters"]
    metrics.reset()
    slots = counters["remap.candidate_slots"]
    assert 0 < slots <= 2 * counters["remap.candidate_pes"]
