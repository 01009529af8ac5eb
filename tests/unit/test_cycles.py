"""Unit tests for SCC decomposition, and Howard's iteration bound
against the Karp-style cycle-ratio oracle."""

from fractions import Fraction

from repro.graph import CSDFG, chain_csdfg, iteration_bound, ring_csdfg
from repro.graph.cycles import recursive_core, strongly_connected_components

from ..oracles import karp_maximum_cycle_ratio


class TestScc:
    def test_figure1_components(self, figure1):
        comps = strongly_connected_components(figure1)
        as_sets = [set(c) for c in comps]
        # recursive cores: {A, B, D} (A->B->D->A) and {E, F} (E->F->E)
        assert {"A", "B", "D"} in as_sets
        assert {"E", "F"} in as_sets
        assert {"C"} in as_sets
        assert sum(len(c) for c in comps) == 6

    def test_dag_all_singletons(self, diamond_dag):
        comps = strongly_connected_components(diamond_dag)
        assert all(len(c) == 1 for c in comps)
        assert len(comps) == 4

    def test_recursive_core(self, figure1):
        core = recursive_core(figure1)
        assert {frozenset(c) for c in core} == {
            frozenset({"A", "B", "D"}),
            frozenset({"E", "F"}),
        }

    def test_self_loop_counts_as_core(self):
        g = CSDFG()
        g.add_node("a")
        g.add_edge("a", "a", 1, 1)
        assert recursive_core(g) == [["a"]]

    def test_acyclic_core_empty(self, diamond_dag):
        assert recursive_core(diamond_dag) == []


class TestKarpRatio:
    def test_matches_iteration_bound_on_examples(self, figure1, figure7):
        for g in (figure1, figure7):
            assert karp_maximum_cycle_ratio(g) == iteration_bound(g)

    def test_acyclic_zero(self, diamond_dag):
        assert karp_maximum_cycle_ratio(diamond_dag) == 0

    def test_fractional(self):
        g = chain_csdfg(3, time=1, loop_delay=2)
        assert karp_maximum_cycle_ratio(g) == Fraction(3, 2)

    def test_ring(self):
        g = ring_csdfg(5, delay_per_edge=1, time=2)
        assert karp_maximum_cycle_ratio(g) == Fraction(2)

    def test_workload_sweep(self):
        from repro.workloads import make_workload, workload_names

        for name in workload_names():
            g = make_workload(name)
            assert karp_maximum_cycle_ratio(g) == iteration_bound(g), name
