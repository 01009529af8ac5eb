"""Unit tests for the projected schedule length PSL.

The anticipation function AN has no scalar form of its own: the
remapping slot search computes it as the zero-delay floor
(``kernels.fold_max``) plus the delayed in-edge bounds of the implied
length, pinned by the fast-path equivalence suite."""

import pytest

from repro.arch import CompletelyConnected, LinearArray
from repro.core import projected_schedule_length, psl_edge_bound
from repro.errors import InfeasibleScheduleError
from repro.graph import CSDFG
from repro.schedule import ScheduleTable


@pytest.fixture
def pair_delayed():
    """u -> v with one delay and volume 2."""
    g = CSDFG("g")
    g.add_node("u", 1)
    g.add_node("v", 1)
    g.add_edge("u", "v", 1, 2)
    return g


class TestPsl:
    def test_edge_bound_formula(self):
        # L >= ceil((CE + M + 1 - CB) / d)
        assert psl_edge_bound(finish_u=4, start_v=1, comm=4, delay=1) == 8
        assert psl_edge_bound(finish_u=4, start_v=1, comm=4, delay=2) == 4
        assert psl_edge_bound(finish_u=4, start_v=1, comm=4, delay=3) == 3

    def test_edge_bound_requires_delay(self):
        with pytest.raises(InfeasibleScheduleError):
            psl_edge_bound(1, 1, 1, 0)

    def test_projected_length(self, pair_delayed):
        arch = LinearArray(2)
        s = ScheduleTable(2)
        s.place("u", 0, 1, 1)
        s.place("v", 1, 1, 1)
        # CB(v) + L >= CE(u) + 2 + 1 -> L >= 3
        assert projected_schedule_length(pair_delayed, arch, s) == 3

    def test_infeasible_zero_delay(self):
        g = CSDFG("g")
        g.add_node("u", 1)
        g.add_node("v", 1)
        g.add_edge("u", "v", 0, 1)
        arch = CompletelyConnected(2)
        s = ScheduleTable(2)
        s.place("u", 0, 2, 1)
        s.place("v", 1, 1, 1)
        with pytest.raises(InfeasibleScheduleError):
            projected_schedule_length(g, arch, s)

    def test_matches_paper_lemma_plus_one(self):
        # the paper's Lemma 4.3 says ceil((M + CE - CB) / k); our
        # validator-consistent form adds 1 to M + CE - CB (DESIGN.md §2)
        ce_u, cb_v, m, k = 6, 2, 4, 2
        paper_value = -(-(m + ce_u - cb_v) // k)
        ours = psl_edge_bound(ce_u, cb_v, m, k)
        assert ours == paper_value or ours == paper_value + 1
        assert ours == -(-(ce_u + m + 1 - cb_v) // k)
