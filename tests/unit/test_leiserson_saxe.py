"""Unit tests for Leiserson–Saxe clock-period-minimising retiming."""

import pytest

from repro.errors import RetimingError
from repro.graph import CSDFG, critical_path_length
from repro.retiming import (
    apply_retiming,
    feasible_retiming_for_period,
    min_period_retiming,
    wd_matrices,
)


def correlator():
    """The Leiserson–Saxe running example (digital correlator).

    Host h (t=0 is not allowed here, use 1), comparators (t=3),
    adders (t=7): the classic instance where retiming cuts the clock
    period from 24 to 13 (times shifted by our t >= 1 constraint).
    """
    g = CSDFG("correlator")
    g.add_node("h", 1)
    for name in ("d1", "d2", "d3"):
        g.add_node(name, 3)
    for name in ("p1", "p2", "p3"):
        g.add_node(name, 7)
    g.add_edge("h", "d1", 1, 1)
    g.add_edge("d1", "d2", 1, 1)
    g.add_edge("d2", "d3", 1, 1)
    g.add_edge("d1", "p1", 0, 1)
    g.add_edge("d2", "p2", 0, 1)
    g.add_edge("d3", "p3", 0, 1)
    g.add_edge("p3", "p2", 0, 1)
    g.add_edge("p2", "p1", 0, 1)
    g.add_edge("p1", "h", 0, 1)
    return g


class TestWD:
    def test_diagonal(self, figure1):
        index, w, D = wd_matrices(figure1)
        for node, i in index.items():
            assert w[i][i] == 0
            assert D[i][i] == figure1.time(node)

    def test_simple_path(self, figure1):
        index, w, D = wd_matrices(figure1)
        a, b, d = index["A"], index["B"], index["D"]
        assert w[a][b] == 0
        assert D[a][b] == 3  # t(A) + t(B)
        assert w[a][d] == 0
        assert D[a][d] == 4  # A + B + D

    def test_min_delay_wins(self, figure1):
        index, w, D = wd_matrices(figure1)
        d, a = index["D"], index["A"]
        assert w[d][a] == 3  # only path is the feedback edge

    def test_unreachable_pair(self):
        g = CSDFG("two")
        g.add_nodes("ab")
        g.add_edge("a", "b", 0, 1)
        index, w, D = wd_matrices(g)
        assert w[index["b"]][index["a"]] > 10**9  # sentinel


class TestFeasibility:
    def test_period_below_max_time_infeasible(self, figure1):
        assert feasible_retiming_for_period(figure1, 1) is None

    def test_original_period_feasible(self, figure1):
        cp = critical_path_length(figure1)
        r = feasible_retiming_for_period(figure1, cp)
        assert r is not None
        retimed = apply_retiming(figure1, r)
        assert critical_path_length(retimed) <= cp


class TestMinPeriod:
    def test_figure1(self, figure1):
        period, r = min_period_retiming(figure1)
        retimed = apply_retiming(figure1, r)
        assert critical_path_length(retimed) == period
        assert period <= critical_path_length(figure1)

    def test_correlator_improves(self):
        g = correlator()
        before = critical_path_length(g)
        period, r = min_period_retiming(g)
        assert period < before
        retimed = apply_retiming(g, r)
        assert critical_path_length(retimed) == period

    def test_acyclic_graph_fully_pipelines(self, diamond_dag):
        # a host-free DAG has no cycle to constrain the retiming, so
        # registers can be inserted on every edge: the period drops to
        # the largest single node time (classic DAG pipelining)
        period, r = min_period_retiming(diamond_dag)
        assert period == max(diamond_dag.time(v) for v in diamond_dag.nodes())
        retimed = apply_retiming(diamond_dag, r)
        assert critical_path_length(retimed) == period

    def test_host_cycle_pins_io_latency(self, diamond_dag):
        # a host edge t -> s closing the loop bounds the period by the
        # cycle ratio: 1 delay over 3 time units pins the period at 3
        g1 = diamond_dag.copy()
        g1.add_edge("t", "s", 1, 1)
        period1, _ = min_period_retiming(g1)
        assert period1 == 3  # == ceil(cycle time / cycle delays)
        # 2 delays allow period 2 = ceil(3 / 2)
        g2 = diamond_dag.copy()
        g2.add_edge("t", "s", 2, 1)
        period2, r2 = min_period_retiming(g2)
        assert period2 == 2
        retimed = apply_retiming(g2, r2)
        assert critical_path_length(retimed) == 2
        # cycle delay preserved by retiming (s -> l -> t -> s)
        cycle_delay = (
            retimed.delay("s", "l")
            + retimed.delay("l", "t")
            + retimed.delay("t", "s")
        )
        assert cycle_delay == 2

    def test_empty_graph_raises(self):
        with pytest.raises(RetimingError):
            min_period_retiming(CSDFG())

    def test_period_never_below_iteration_time_bound(self, figure7):
        period, _ = min_period_retiming(figure7)
        assert period >= max(figure7.time(v) for v in figure7.nodes())
