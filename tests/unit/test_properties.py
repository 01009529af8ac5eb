"""Unit tests for graph analytical properties."""

import sys
from fractions import Fraction

import pytest

from repro.errors import GraphError
from repro.graph import (
    CSDFG,
    alap_times,
    asap_times,
    chain_csdfg,
    critical_path_length,
    critical_path_nodes,
    iteration_bound,
    iteration_bound_exact,
    karp_maximum_cycle_ratio,
    layered_csdfg,
    parallelism_profile,
    ring_csdfg,
)


class TestAsapAlap:
    def test_figure1_asap(self, figure1):
        asap = asap_times(figure1)
        # A(1) B(2-3) D(4) E(4-5) F(6); C(2)
        assert asap["A"] == 1
        assert asap["B"] == 2
        assert asap["C"] == 2
        assert asap["D"] == 4
        assert asap["E"] == 4
        assert asap["F"] == 6

    def test_figure1_alap(self, figure1):
        alap = alap_times(figure1)
        assert alap["F"] == 6
        assert alap["E"] == 4
        assert alap["B"] == 2
        assert alap["C"] == 3  # one step of slack
        assert alap["A"] == 1

    def test_alap_never_before_asap(self, figure7):
        asap, alap = asap_times(figure7), alap_times(figure7)
        assert all(alap[v] >= asap[v] for v in figure7.nodes())

    def test_alap_with_custom_horizon(self, figure1):
        alap = alap_times(figure1, horizon=10)
        assert alap["F"] == 10

    def test_critical_path(self, figure1):
        assert critical_path_length(figure1) == 6

    def test_critical_path_nodes(self, figure1):
        crit = critical_path_nodes(figure1)
        assert "C" not in crit
        assert {"A", "B", "E", "F"} <= set(crit)

    def test_empty_graph_cp_zero(self):
        assert critical_path_length(CSDFG()) == 0

    def test_parallelism_profile(self, diamond_dag):
        assert parallelism_profile(diamond_dag) == [1, 2, 1]


class TestIterationBound:
    def test_acyclic_graph_zero(self, diamond_dag):
        assert iteration_bound(diamond_dag) == 0

    def test_figure1(self, figure1):
        # cycles: A->B->D->A (t=4, d=3), A->E..? none; E->F->E (t=3, d=1)
        assert iteration_bound(figure1) == Fraction(3)
        assert iteration_bound_exact(figure1) == Fraction(3)

    def test_chain_loop(self):
        g = chain_csdfg(5, time=2, loop_delay=2)
        assert iteration_bound(g) == Fraction(10, 2)

    def test_ring_fully_pipelined(self):
        g = ring_csdfg(4, delay_per_edge=1, time=1)
        assert iteration_bound(g) == Fraction(1)

    def test_matches_exact_on_figure7(self, figure7):
        assert iteration_bound(figure7) == iteration_bound_exact(figure7)

    def test_fractional_bound(self):
        g = chain_csdfg(3, time=1, loop_delay=2)
        assert iteration_bound(g) == Fraction(3, 2)

    def test_self_loop(self):
        g = CSDFG()
        g.add_node("a", 4)
        g.add_edge("a", "a", 3)
        assert iteration_bound(g) == Fraction(4, 3)

    def test_zero_delay_scc_raises(self):
        # the only cycle a -> b -> a carries no delay
        g = CSDFG()
        g.add_nodes(["a", "b"])
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        for bound in (iteration_bound, iteration_bound_exact):
            with pytest.raises(
                GraphError, match="illegal CSDFG: nonpositive-delay cycle"
            ):
                bound(g)
        with pytest.raises(GraphError):
            karp_maximum_cycle_ratio(g)

    def test_zero_delay_cycle_inside_delayed_scc_raises(self):
        # a -> b -> a has no delay; a -> b -> c -> a carries one
        g = CSDFG()
        g.add_nodes(["a", "b", "c"])
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        g.add_edge("b", "c", 1)
        g.add_edge("c", "a", 0)
        for bound in (iteration_bound, iteration_bound_exact):
            with pytest.raises(
                GraphError, match="illegal CSDFG: nonpositive-delay cycle"
            ):
                bound(g)

    def test_long_chain(self):
        assert iteration_bound(chain_csdfg(10_000)) == Fraction(10_000)

    def test_long_ring(self):
        assert iteration_bound(ring_csdfg(5_000)) == Fraction(1)

    def test_thousand_node_layered(self):
        g = layered_csdfg([50] * 20, seed=11)
        assert iteration_bound(g) == Fraction(18)

    def test_needs_no_networkx(self, monkeypatch):
        from repro.workloads import make_workload, workload_names

        monkeypatch.setitem(sys.modules, "networkx", None)
        for name in workload_names():
            g = make_workload(name)
            assert iteration_bound(g) == karp_maximum_cycle_ratio(g), name
