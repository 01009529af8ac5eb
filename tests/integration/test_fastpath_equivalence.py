"""End-to-end fast-path vs reference-engine equivalence.

``cyclo_compact`` (comm-cost cache, interval-indexed table, incremental
PSL, pruned slot search) must produce exactly the schedules of
``reference_cyclo_compact`` (the preserved pre-optimisation engine):
same lengths, same placements, same accept/reject traces — on every
registered workload and every paper topology, and across the optimiser
modes (per-step validation, first-fit remapping, pipelined PEs, no
relaxation).

The event-driven ``start_up_schedule`` is also pinned on its own
against ``reference_start_up_schedule`` (the per-control-step list
scheduler): same placements, same length and the same typed errors,
for every priority function and machine variant.
"""

import random

import pytest

from repro.arch.cache import CommCostCache
from repro.arch.degraded import DegradedTopology
from repro.arch.registry import make_architecture, paper_architectures
from repro.core import (
    CycloConfig,
    cyclo_compact,
    fifo_priority,
    mobility_only_priority,
    paper_priority,
    start_up_schedule,
    volume_only_priority,
)
from repro.errors import ReproError
from repro.graph.csdfg import CSDFG
from repro.graph.generators import (
    chain_csdfg,
    fork_join_csdfg,
    layered_csdfg,
    ring_csdfg,
)
from repro.perf.reference import (
    reference_cyclo_compact,
    reference_start_up_schedule,
)
from repro.perf.restarts import JitteredPriority
from repro.workloads import make_workload, workload_names


def _assert_equivalent(graph, arch, cfg):
    fast = cyclo_compact(graph, arch, config=cfg)
    ref = reference_cyclo_compact(graph, arch, config=cfg)
    label = f"{graph.name} on {arch.name}"
    assert fast.initial_length == ref.initial_length, label
    assert fast.final_length == ref.final_length, label
    assert fast.initial_schedule.same_placements(
        ref.initial_schedule
    ), label
    assert fast.schedule.same_placements(ref.schedule), label
    assert fast.trace == ref.trace, label
    assert fast.stop_reason == ref.stop_reason, label
    assert fast.retiming == ref.retiming, label


@pytest.mark.parametrize("workload", workload_names())
def test_every_workload_on_every_paper_topology(workload):
    graph = make_workload(workload)
    cfg = CycloConfig(max_iterations=6, validate_each_step=False)
    for arch in paper_architectures(8).values():
        _assert_equivalent(graph, arch, cfg)


def test_tree_topology():
    graph = make_workload("figure7")
    arch = make_architecture("tree", 7)
    cfg = CycloConfig(max_iterations=8, validate_each_step=False)
    _assert_equivalent(graph, arch, cfg)


@pytest.mark.parametrize(
    "kind,pes",
    [
        ("circulant", 8),
        ("cayley-star", 6),
        ("cayley-bubble", 6),
        ("pancake", 6),
    ],
)
def test_cayley_family_topologies(kind, pes):
    # the Cayley generator's members go through the same strict
    # fast-vs-reference equivalence as the paper topologies
    graph = make_workload("figure7")
    arch = make_architecture(kind, pes)
    cfg = CycloConfig(max_iterations=8, validate_each_step=False)
    _assert_equivalent(graph, arch, cfg)


def test_cayley_workload_sweep_on_circulant():
    arch = make_architecture("circulant", 8)
    cfg = CycloConfig(max_iterations=6, validate_each_step=False)
    for workload in ("figure1", "biquad4", "fft8"):
        _assert_equivalent(make_workload(workload), arch, cfg)


def test_with_per_step_validation():
    graph = make_workload("figure7")
    arch = make_architecture("mesh", 8)
    cfg = CycloConfig(max_iterations=8, validate_each_step=True)
    _assert_equivalent(graph, arch, cfg)


def test_first_fit_strategy():
    graph = make_workload("biquad4")
    arch = make_architecture("mesh", 8)
    cfg = CycloConfig(
        max_iterations=8,
        validate_each_step=False,
        remap_strategy="first-fit",
    )
    _assert_equivalent(graph, arch, cfg)


def test_pipelined_pes():
    graph = make_workload("figure7")
    arch = make_architecture("hypercube", 8)
    cfg = CycloConfig(
        max_iterations=8, validate_each_step=False, pipelined_pes=True
    )
    _assert_equivalent(graph, arch, cfg)


def test_without_relaxation():
    graph = make_workload("elliptic5")
    arch = make_architecture("mesh", 8)
    cfg = CycloConfig(
        max_iterations=8, validate_each_step=False, relaxation=False
    )
    _assert_equivalent(graph, arch, cfg)


def test_longer_run_stays_equivalent():
    graph = make_workload("figure7")
    arch = make_architecture("mesh", 8)
    cfg = CycloConfig(max_iterations=40, validate_each_step=False)
    _assert_equivalent(graph, arch, cfg)


WIDE_GRAPHS = {
    "figure7": lambda: make_workload("figure7"),
    "layered60-s1": lambda: layered_csdfg([6] * 10, seed=1),
    "layered60-s2": lambda: layered_csdfg([5, 8, 7, 9, 8, 7, 9, 7], seed=2),
}

WIDE_MACHINES = {
    "mesh16": lambda: make_architecture("mesh", 16),
    "complete16": lambda: make_architecture("complete", 16),
    # 18 live PEs with non-contiguous ids and None rows at the dead ones
    "mesh20-minus-0-5": lambda: DegradedTopology(
        make_architecture("mesh", 20), failed_pes=[0, 5]
    ),
}


@pytest.mark.parametrize("machine", sorted(WIDE_MACHINES))
@pytest.mark.parametrize("graph_name", sorted(WIDE_GRAPHS))
def test_wide_machines(graph_name, machine):
    # the remapping slot search on 16 or more candidate PEs
    graph = WIDE_GRAPHS[graph_name]()
    arch = WIDE_MACHINES[machine]()
    assert len(arch.processors) >= 16
    cfg = CycloConfig(max_iterations=12, validate_each_step=False)
    _assert_equivalent(graph, arch, cfg)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("machine", ["mesh8", "mesh20-minus-0-5"])
def test_reference_never_reads_the_comm_cache(machine, validate, monkeypatch):
    # the oracle prices every decision and every in-run check through
    # arch.comm_cost: with cache rows made unbuildable it still returns
    # the run it returned before
    graph = make_workload("figure7")
    arch = (
        make_architecture("mesh", 8)
        if machine == "mesh8"
        else WIDE_MACHINES[machine]()
    )
    cfg = CycloConfig(max_iterations=8, validate_each_step=validate)
    expected = reference_cyclo_compact(graph, arch, config=cfg)

    def unbuildable(*args, **kwargs):
        raise AssertionError("the reference engine built a comm-cache row")

    monkeypatch.setattr(CommCostCache, "_build_row", unbuildable)
    ref = reference_cyclo_compact(graph, arch, config=cfg)
    assert ref.schedule.same_placements(expected.schedule)
    assert ref.initial_schedule.same_placements(expected.initial_schedule)
    assert ref.trace == expected.trace
    assert ref.retiming == expected.retiming
    assert ref.stop_reason == expected.stop_reason


# ----------------------------------------------------------------------
# start-up on its own
# ----------------------------------------------------------------------
PRIORITIES = {
    "paper": paper_priority,
    "mobility_only": mobility_only_priority,
    "fifo": fifo_priority,
    "volume_only": volume_only_priority,
    **{f"jittered{i}": JitteredPriority(11, i) for i in (1, 2, 3)},
}


def _run_startup(fn, graph, arch, **kwargs):
    try:
        return fn(graph, arch, **kwargs), None
    except ReproError as exc:
        return None, exc


def _assert_startup_equivalent(graph, arch, **kwargs):
    fast, fast_err = _run_startup(start_up_schedule, graph, arch, **kwargs)
    ref, ref_err = _run_startup(
        reference_start_up_schedule, graph, arch, **kwargs
    )
    label = f"{graph.name} on {arch.name} {kwargs}"
    if ref_err is not None or fast_err is not None:
        assert type(fast_err) is type(ref_err), label
        assert str(fast_err) == str(ref_err), label
        return
    assert fast.length == ref.length, label
    assert fast.same_placements(ref), label


def _reweighted(graph, seed, max_weight=3):
    """``graph`` with node times and edge volumes drawn per element."""
    rng = random.Random(seed)
    out = CSDFG(graph.name)
    for v in graph.nodes():
        out.add_node(v, rng.randint(1, max_weight))
    for e in graph.edges():
        out.add_edge(e.src, e.dst, e.delay, rng.randint(1, max_weight))
    return out


@pytest.mark.parametrize("workload", workload_names())
def test_startup_every_workload_on_every_paper_topology(workload):
    graph = make_workload(workload)
    for arch in paper_architectures(8).values():
        _assert_startup_equivalent(graph, arch)


@pytest.mark.parametrize("name", sorted(PRIORITIES))
def test_startup_every_priority(name):
    priority = PRIORITIES[name]
    for workload in workload_names():
        graph = make_workload(workload)
        for arch in paper_architectures(8).values():
            _assert_startup_equivalent(graph, arch, priority=priority)


@pytest.mark.parametrize("name", ["paper", "fifo", "jittered1"])
def test_startup_pipelined_pes(name):
    for workload in workload_names():
        _assert_startup_equivalent(
            make_workload(workload),
            make_architecture("hypercube", 8),
            priority=PRIORITIES[name],
            pipelined_pes=True,
        )


def test_startup_heterogeneous_machine():
    arch = make_architecture("mesh", 8).with_time_scales(
        [1, 2, 1, 3, 2, 1, 1, 2]
    )
    for workload in workload_names():
        graph = make_workload(workload)
        for priority in PRIORITIES.values():
            _assert_startup_equivalent(graph, arch, priority=priority)
        _assert_startup_equivalent(graph, arch, pipelined_pes=True)


def test_startup_degraded_topology_with_non_contiguous_pes():
    arch = DegradedTopology(make_architecture("mesh", 8), failed_pes=[0, 6])
    assert list(arch.processors) == [1, 2, 3, 4, 5, 7]
    for workload in workload_names():
        graph = make_workload(workload)
        _assert_startup_equivalent(graph, arch)
        _assert_startup_equivalent(
            graph, arch, comm=CommCostCache.for_graph(arch, graph)
        )


def test_startup_with_and_without_comm_cache():
    for workload in workload_names():
        graph = make_workload(workload)
        for arch in paper_architectures(8).values():
            _assert_startup_equivalent(graph, arch, comm=None)
            _assert_startup_equivalent(
                graph, arch, comm=CommCostCache.for_graph(arch, graph)
            )


def test_startup_unpadded():
    for workload in workload_names():
        _assert_startup_equivalent(
            make_workload(workload),
            make_architecture("ring", 8),
            pad_for_delayed_edges=False,
        )


@pytest.mark.parametrize(
    "graph,kind",
    [
        (fork_join_csdfg(99, stages=2, loop_delay=2), "hypercube"),
        (ring_csdfg(500), "torus"),
        (chain_csdfg(2000, loop_delay=2), "ring"),
    ],
    ids=["fork-join-200", "ring-500", "chain-2000"],
)
def test_startup_benchmark_families(graph, kind):
    arch = make_architecture(kind, 16)
    for seed in (1, 2):
        weighted = _reweighted(graph, seed)
        _assert_startup_equivalent(
            weighted, arch, comm=CommCostCache.for_graph(arch, weighted)
        )


def test_startup_typed_errors_agree():
    _assert_startup_equivalent(CSDFG("empty"), make_architecture("ring", 4))
    cyclic = CSDFG("zero-delay-cycle")
    cyclic.add_nodes("abc")
    cyclic.add_edge("a", "b")
    cyclic.add_edge("b", "c")
    cyclic.add_edge("c", "a")
    _assert_startup_equivalent(cyclic, make_architecture("ring", 4))


# ----------------------------------------------------------------------
# start-up code paths: release heap, cached single-producer orders,
# positions that are not PE ids, surcharged prices
# ----------------------------------------------------------------------
def _single_producer_nodes(graph):
    return [
        v for v in graph.nodes()
        if sum(1 for e in graph.in_edges(v) if e.delay == 0) == 1
    ]


@pytest.mark.parametrize("kind,pes", [("hypercube", 16), ("complete", 64)])
def test_startup_wide_fan_out(kind, pes):
    # one source feeding every chain: the shape with the most deferrals
    arch = make_architecture(kind, pes)
    for width, stages in ((150, 1), (60, 3)):
        for seed in (1, 2):
            graph = _reweighted(
                fork_join_csdfg(width, stages=stages, loop_delay=2), seed
            )
            _assert_startup_equivalent(graph, arch)
            _assert_startup_equivalent(graph, arch, pipelined_pes=True)


def test_startup_degraded_single_producers():
    # positions 0..8 map to PE ids 0, 2, 3, 5, 7, 8, 9, 11, 13: a cached
    # order or a cost row indexed by id instead of position goes wrong
    arch = DegradedTopology(
        make_architecture("torus", 16), failed_pes=[1, 4, 6, 10, 12, 14, 15]
    )
    assert list(arch.processors) == [0, 2, 3, 5, 7, 8, 9, 11, 13]
    for seed in (1, 2, 3):
        for graph in (
            _reweighted(chain_csdfg(60, loop_delay=2), seed),
            _reweighted(fork_join_csdfg(20, stages=3, loop_delay=2), seed),
            _reweighted(layered_csdfg([4, 6, 6, 4], seed=seed), seed),
        ):
            assert _single_producer_nodes(graph)
            for name in ("paper", "fifo", "volume_only"):
                _assert_startup_equivalent(
                    graph, arch, priority=PRIORITIES[name]
                )


class _DescendingIds(DegradedTopology):
    """Survivors listed in descending id order: a position's order is
    then the reverse of its PE id's."""

    @property
    def processors(self):
        return tuple(reversed(super().processors))


def test_startup_breaks_ties_by_pe_id_not_position():
    # the reference picks the lowest PE id among equal (duration, cm_p);
    # with ids listed backwards a ranking by position picks the highest
    for scales in (None, [1, 2, 1, 3, 2, 1, 1, 2, 1]):
        base = make_architecture("torus", 9)
        if scales is not None:
            base = base.with_time_scales(scales)
        arch = _DescendingIds(base, failed_pes=[4])
        assert list(arch.processors) == [8, 7, 6, 5, 3, 2, 1, 0]
        for seed in (1, 2):
            for graph in (
                _reweighted(fork_join_csdfg(12, stages=2, loop_delay=2), seed),
                _reweighted(layered_csdfg([4, 6, 6, 4], seed=seed), seed),
            ):
                _assert_startup_equivalent(graph, arch)


def test_startup_heterogeneous_cached_orders():
    # cached PE orders are shared across base times: they must rank the
    # PEs by time scale first, whatever the node's own time
    arch = make_architecture("torus", 9).with_time_scales(
        [1, 3, 2, 1, 2, 3, 1, 1, 2]
    )
    for seed in (1, 2, 3):
        for graph in (
            _reweighted(chain_csdfg(40, loop_delay=2), seed),
            _reweighted(fork_join_csdfg(24, stages=2, loop_delay=2), seed),
            _reweighted(layered_csdfg([3, 5, 5, 3], seed=seed), seed),
        ):
            times = {graph.time(v) for v in _single_producer_nodes(graph)}
            assert len(times) > 1
            _assert_startup_equivalent(graph, arch)
            _assert_startup_equivalent(graph, arch, pipelined_pes=True)


def test_startup_zero_delay_cycle_raises_the_validation_error():
    from repro.errors import GraphValidationError
    from repro.graph.validation import topological_order_zero_delay

    graph = _reweighted(chain_csdfg(12, loop_delay=2), 1)
    graph.add_node("x", 2)
    graph.add_edge("n3", "x", 0, 2)
    graph.add_edge("x", "n5", 0, 1)
    graph.add_edge("n6", "x", 0, 1)  # x -> n5 -> n6 -> x, no delay
    with pytest.raises(GraphValidationError) as expected:
        topological_order_zero_delay(graph)
    with pytest.raises(GraphValidationError) as got:
        start_up_schedule(graph, make_architecture("ring", 4))
    assert str(got.value) == str(expected.value)
    _assert_startup_equivalent(graph, make_architecture("ring", 4))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_startup_under_a_contended_cache(seed):
    # the pipeline's second phase: a serialized, weight-2 surcharge
    # frozen from a phase-1 schedule prices every start-up placement
    from repro.arch.comm import make_contention_model
    from repro.arch.contention import LinkOccupancy

    arch = make_architecture("circulant", 16)
    graph = layered_csdfg([10] * 8, seed=seed)
    blind = cyclo_compact(
        graph, arch,
        config=CycloConfig(max_iterations=4, validate_each_step=False),
    )
    occupancy = LinkOccupancy.from_assignment(
        blind.graph, arch, blind.schedule.processor_map()
    )
    comm = CommCostCache.for_graph(
        arch, graph,
        contention=make_contention_model("serialized", weight=2),
        occupancy=occupancy,
    )
    plain = start_up_schedule(graph, arch)
    surcharged = start_up_schedule(graph, arch, comm=comm)
    # the surcharge moves placements, so the prices are really exercised
    assert not surcharged.same_placements(plain)
    for name in ("paper", "mobility_only", "jittered1"):
        _assert_startup_equivalent(
            graph, arch, priority=PRIORITIES[name], comm=comm
        )
    _assert_startup_equivalent(graph, arch, pipelined_pes=True, comm=comm)
