"""Property tests: graph substrate invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    critical_path_length,
    from_edge_list,
    from_json,
    is_legal,
    iteration_bound,
    slowdown,
    to_edge_list,
    to_json,
    unfold,
    validate_csdfg,
)

from ..oracles import iteration_bound_exact
from .conftest import csdfgs


class TestGeneratorLegality:
    @given(csdfgs())
    @settings(max_examples=60, deadline=None)
    def test_generated_graphs_are_legal(self, g):
        validate_csdfg(g)

    @given(csdfgs())
    @settings(max_examples=40, deadline=None)
    def test_critical_path_at_least_max_time(self, g):
        assert critical_path_length(g) >= max(g.time(v) for v in g.nodes())


class TestSerializationRoundTrip:
    @given(csdfgs())
    @settings(max_examples=40, deadline=None)
    def test_json(self, g):
        assert from_json(to_json(g)).structurally_equal(g)

    @given(csdfgs())
    @settings(max_examples=40, deadline=None)
    def test_edge_list(self, g):
        assert from_edge_list(to_edge_list(g)).structurally_equal(g)


class TestTransforms:
    @given(csdfgs(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_slowdown_scales_bound(self, g, f):
        slow = slowdown(g, f)
        assert is_legal(slow)
        assert iteration_bound(slow) == iteration_bound(g) / f

    @given(csdfgs(max_nodes=7), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_unfold_preserves_legality_and_delay_mass(self, g, f):
        u = unfold(g, f)
        assert is_legal(u)
        assert u.num_nodes == f * g.num_nodes
        assert sum(e.delay for e in u.edges()) == sum(
            e.delay for e in g.edges()
        )


class TestIterationBound:
    @given(csdfgs(max_nodes=8))
    @settings(max_examples=25, deadline=None)
    def test_parametric_matches_exhaustive(self, g):
        assert iteration_bound(g) == iteration_bound_exact(g)

    @given(csdfgs())
    @settings(max_examples=30, deadline=None)
    def test_bound_at_most_total_work(self, g):
        assert iteration_bound(g) <= g.total_work()
