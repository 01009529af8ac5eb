"""Unit tests for the schedule-length floor ``B`` (repro.core.bounds)."""

from repro.arch import make_architecture
from repro.baselines import exact_minimum_length
from repro.core import CycloConfig, length_lower_bound
from repro.graph import CSDFG, iteration_bound


def two_tasks() -> CSDFG:
    g = CSDFG("w")
    g.add_node("a", 5)
    g.add_node("b", 1)
    g.add_edge("a", "b", 1, 1)
    return g


class TestLengthLowerBound:
    def test_lower_bound_work_and_longest_task(self):
        arch = make_architecture("linear", 2)
        # work bound ceil(6/2)=3 < longest task 5
        assert length_lower_bound(two_tasks(), arch) == 5

    def test_lower_bound_includes_iteration_bound(self, figure1):
        arch = make_architecture("complete", 8)
        b = length_lower_bound(figure1, arch)
        assert b >= iteration_bound(figure1)

    def test_pipelined_counts_issue_slots(self):
        g = CSDFG("p")
        for i in range(4):
            g.add_node(f"n{i}", 3)
        for i in range(3):
            g.add_edge(f"n{i}", f"n{i+1}", 1, 1)
        arch = make_architecture("linear", 2)
        plain = length_lower_bound(g, arch)          # ceil(12/2) = 6
        piped = length_lower_bound(
            g, arch, CycloConfig(pipelined_pes=True)
        )                                            # max(ceil(4/2), t=3)
        assert plain == 6 and piped == 3

    def test_heterogeneous_scales_by_the_fastest_pe(self):
        g = two_tasks()
        arch = make_architecture("linear", 2).with_time_scales((2, 3))
        # the 5-step task needs 5 * 2 steps even on the faster PE
        assert length_lower_bound(g, arch) == 10
        optimum, _ = exact_minimum_length(g, arch)
        assert length_lower_bound(g, arch) <= optimum
