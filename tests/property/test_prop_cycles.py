"""Property tests: three independent iteration-bound implementations
agree, and SCC structure behaves."""

from hypothesis import given, settings

from repro.graph import (
    iteration_bound,
    iteration_bound_exact,
    karp_maximum_cycle_ratio,
    recursive_core,
    scc_condensation,
    strongly_connected_components,
)

from .conftest import csdfgs


class TestBoundAgreement:
    @given(csdfgs(max_nodes=8))
    @settings(max_examples=30, deadline=None)
    def test_three_way_agreement(self, g):
        lawler = iteration_bound(g)
        karp = karp_maximum_cycle_ratio(g)
        exact = iteration_bound_exact(g)
        assert lawler == karp == exact

    @given(csdfgs(max_nodes=40))
    @settings(max_examples=12, deadline=None)
    def test_agrees_with_karp_beyond_enumeration(self, g):
        assert iteration_bound(g) == karp_maximum_cycle_ratio(g)


class TestSccProperties:
    @given(csdfgs())
    @settings(max_examples=40, deadline=None)
    def test_partition(self, g):
        comps = strongly_connected_components(g)
        seen = [v for comp in comps for v in comp]
        assert sorted(map(str, seen)) == sorted(map(str, g.nodes()))
        assert len(seen) == g.num_nodes  # no duplicates

    @given(csdfgs())
    @settings(max_examples=30, deadline=None)
    def test_condensation_acyclic(self, g):
        comps, edges = scc_condensation(g)
        # a DAG admits a topological order: Kahn over the condensation
        indeg = [0] * len(comps)
        adj: dict[int, list[int]] = {i: [] for i in range(len(comps))}
        for a, b in edges:
            adj[a].append(b)
            indeg[b] += 1
        frontier = [i for i, k in enumerate(indeg) if k == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for nxt in adj[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    frontier.append(nxt)
        assert seen == len(comps)

    @given(csdfgs())
    @settings(max_examples=30, deadline=None)
    def test_core_iff_positive_bound(self, g):
        has_core = bool(recursive_core(g))
        assert has_core == (iteration_bound(g) > 0)
