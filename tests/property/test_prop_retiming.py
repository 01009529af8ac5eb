"""Property tests: retiming invariants (Lemma-level guarantees)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import critical_path_length, is_legal, iteration_bound
from repro.retiming import (
    apply_retiming,
    can_rotate,
    is_legal_retiming,
    min_period_retiming,
    rotate_nodes,
    unrotate_nodes,
)

from ..oracles import simple_cycles
from .conftest import csdfgs


def cycle_delay_sums(g):
    """Total delay of each simple cycle, keyed by the node tuple."""
    out = {}
    for cycle in simple_cycles(g):
        delay = 0
        for i, u in enumerate(cycle):
            delay += g.delay(u, cycle[(i + 1) % len(cycle)])
        out[tuple(cycle)] = delay
    return out


class TestRotationPrimitive:
    @given(csdfgs())
    @settings(max_examples=50, deadline=None)
    def test_rotate_unrotate_identity(self, g):
        roots = g.roots()
        assume(roots and can_rotate(g, roots))
        before = g.copy()
        rotate_nodes(g, roots)
        assert is_legal(g)
        unrotate_nodes(g, roots)
        assert g.structurally_equal(before)

    @given(csdfgs(max_nodes=8))
    @settings(max_examples=30, deadline=None)
    def test_rotation_preserves_cycle_delays(self, g):
        roots = g.roots()
        assume(roots and can_rotate(g, roots))
        before = cycle_delay_sums(g)
        rotate_nodes(g, roots)
        assert cycle_delay_sums(g) == before

    @given(csdfgs())
    @settings(max_examples=30, deadline=None)
    def test_rotation_preserves_iteration_bound(self, g):
        roots = g.roots()
        assume(roots and can_rotate(g, roots))
        before = iteration_bound(g)
        rotate_nodes(g, roots)
        assert iteration_bound(g) == before


class TestRetimingFunction:
    @given(csdfgs(max_nodes=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_apply_matches_legality_predicate(self, g, data):
        r = {
            v: data.draw(st.integers(-2, 2), label=f"r({v})")
            for v in g.nodes()
        }
        if is_legal_retiming(g, r):
            out = apply_retiming(g, r)
            assert is_legal(out)
            assert cycle_delay_sums(out) == cycle_delay_sums(g)
        else:
            import pytest

            from repro.errors import IllegalRetimingError

            with pytest.raises(IllegalRetimingError):
                apply_retiming(g, r)


class TestLeisersonSaxe:
    @given(csdfgs(max_nodes=9))
    @settings(max_examples=25, deadline=None)
    def test_min_period_is_achieved_and_never_worse(self, g):
        period, r = min_period_retiming(g)
        retimed = apply_retiming(g, r)
        assert critical_path_length(retimed) == period
        assert period <= critical_path_length(g)

    @given(csdfgs(max_nodes=8))
    @settings(max_examples=20, deadline=None)
    def test_min_period_at_least_max_cycle_mean_floor(self, g):
        import math

        period, _ = min_period_retiming(g)
        # the clock period of any retiming is at least the max node time
        assert period >= max(g.time(v) for v in g.nodes())
