"""Unit tests for the link-contention analysis and pricing extension."""

import pytest

from repro.arch import (
    CommCostCache,
    LinearArray,
    LinkOccupancy,
    NoContention,
    Ring,
    ScaledContention,
    SerializedContention,
    contended_cost,
    make_contention_model,
)
from repro.errors import ArchitectureError
from repro.graph import CSDFG


def chain_graph():
    g = CSDFG("c")
    g.add_nodes("abc")
    g.add_edge("a", "b", 0, 2)
    g.add_edge("b", "c", 0, 3)
    g.add_edge("c", "a", 1, 1)
    return g


class TestLinkLoads:
    """Per-link tallies come from the uncontended bill."""

    def test_local_assignment_no_traffic(self):
        g = chain_graph()
        report = contended_cost(
            g, LinearArray(3), {"a": 0, "b": 0, "c": 0}, NoContention()
        )
        assert report.base_cost == 0
        assert report.num_remote_edges == 0
        assert report.max_link_load == 0

    def test_spread_assignment(self):
        g = chain_graph()
        arch = LinearArray(3)
        report = contended_cost(
            g, arch, {"a": 0, "b": 1, "c": 2}, NoContention()
        )
        # a->b: 2 over link (0,1); b->c: 3 over (1,2); c->a: 1 over both
        assert report.loads[(0, 1)] == 3
        assert report.loads[(1, 2)] == 4
        assert report.max_link_load == 4
        # store-and-forward: the base bill is sum(volume * hops)
        assert report.base_cost == 2 + 3 + 2
        assert report.num_remote_edges == 3

    def test_hotspots_sorted(self):
        g = chain_graph()
        report = contended_cost(
            g, LinearArray(3), {"a": 0, "b": 1, "c": 2}, NoContention()
        )
        hot = report.hotspots(1)
        assert hot == [((1, 2), 4)]


class TestContentionModels:
    def test_price_laws(self):
        for model in (
            NoContention(),
            SerializedContention(weight=2),
            ScaledContention(weight=3),
        ):
            # zero load charges the base price exactly
            assert model.price(10, 0) == 10
            # free transfers stay free whatever the load
            assert model.price(0, 7) == 0
            # monotone in load
            prev = model.price(10, 0)
            for load in range(1, 6):
                cur = model.price(10, load)
                assert cur >= prev
                prev = cur

    def test_serialized_is_linear_in_load(self):
        model = SerializedContention(weight=3)
        assert model.price(5, 4) == 5 + 3 * 4

    def test_negative_inputs_rejected(self):
        with pytest.raises(ArchitectureError):
            SerializedContention().price(-1, 0)
        with pytest.raises(ArchitectureError):
            SerializedContention().price(1, -2)

    def test_factory(self):
        assert isinstance(make_contention_model("none"), NoContention)
        model = make_contention_model("serialized", weight=4)
        assert isinstance(model, SerializedContention)
        assert model.weight == 4
        with pytest.raises(ArchitectureError):
            make_contention_model("bogus")
        with pytest.raises(ArchitectureError):
            make_contention_model("serialized", weight=0)


class TestLinkOccupancy:
    def test_add_remove_roundtrip(self):
        occ = LinkOccupancy(LinearArray(4))
        occ.add(0, 3, 5)  # reserves (0,1) (1,2) (2,3)
        assert occ.load_on(0, 1) == 5
        assert occ.load_on(2, 3) == 5
        assert occ.load_between(0, 2) == 5
        assert occ.max_load == 5
        occ.remove(0, 3, 5)
        assert occ.loads == {}

    def test_over_release_rejected(self):
        occ = LinkOccupancy(LinearArray(3))
        occ.add(0, 1, 2)
        with pytest.raises(ArchitectureError):
            occ.remove(0, 1, 3)

    def test_same_pe_is_free(self):
        occ = LinkOccupancy(LinearArray(3))
        occ.add(1, 1, 9)
        assert occ.loads == {}
        assert occ.load_between(1, 1) == 0

    def test_from_assignment_skips_unplaced(self):
        g = chain_graph()
        occ = LinkOccupancy.from_assignment(
            g, LinearArray(3), {"a": 0, "b": 1}
        )
        # only a->b contributes: c is unplaced
        assert occ.loads == {(0, 1): 2}

    def test_load_between_is_max_over_route(self):
        occ = LinkOccupancy(LinearArray(4))
        occ.add(0, 1, 2)
        occ.add(2, 3, 7)
        assert occ.load_between(0, 3) == 7


class TestContendedCost:
    def test_disjoint_paths_unaffected(self):
        g = CSDFG("d")
        g.add_nodes("abcd")
        g.add_edge("a", "b", 0, 2)
        g.add_edge("c", "d", 0, 3)
        arch = Ring(6)
        # a->b on links (0,1); c->d on (3,4): no sharing
        report = contended_cost(
            g, arch, {"a": 0, "b": 1, "c": 3, "d": 4},
            SerializedContention(weight=5),
        )
        assert report.contended_cost == report.base_cost
        assert report.congestion_penalty == 0

    def test_shared_link_serialises(self):
        g = CSDFG("s")
        g.add_nodes("abcd")
        g.add_edge("a", "b", 0, 2)
        g.add_edge("c", "d", 0, 3)
        arch = LinearArray(4)
        # both transfers cross link (1,2)
        report = contended_cost(
            g, arch, {"a": 1, "b": 2, "c": 1, "d": 2},
            SerializedContention(weight=1),
        )
        # each edge pays the other's volume on the shared link
        assert report.congestion_penalty == 2 + 3
        assert report.max_link_load == 5

    def test_self_exclusive_metric_is_order_independent(self):
        g1 = CSDFG("o1")
        g1.add_nodes("abcd")
        g1.add_edge("a", "b", 0, 2)
        g1.add_edge("c", "d", 0, 3)
        g2 = CSDFG("o2")
        g2.add_nodes("abcd")
        g2.add_edge("c", "d", 0, 3)
        g2.add_edge("a", "b", 0, 2)
        arch = LinearArray(3)
        assignment = {"a": 0, "b": 2, "c": 0, "d": 2}
        model = SerializedContention(weight=2)
        r1 = contended_cost(g1, arch, assignment, model)
        r2 = contended_cost(g2, arch, assignment, model)
        assert r1.contended_cost == r2.contended_cost

    def test_no_contention_model_reproduces_base(self):
        g = chain_graph()
        report = contended_cost(
            g, LinearArray(3), {"a": 0, "b": 1, "c": 2}, NoContention()
        )
        assert report.contended_cost == report.base_cost


class TestContendedCache:
    def build(self, weight=1, occupy=()):
        arch = LinearArray(4)
        occ = LinkOccupancy(arch)
        for src, dst, vol in occupy:
            occ.add(src, dst, vol)
        cache = CommCostCache(
            arch,
            [1, 2],
            contention=SerializedContention(weight=weight),
            occupancy=occ,
        )
        return arch, cache

    def test_default_cache_is_contention_free(self):
        arch = LinearArray(4)
        cache = CommCostCache(arch, [1, 2])
        assert not cache.contended
        for src in range(4):
            for dst in range(4):
                for vol in (1, 2):
                    assert cache.cost(src, dst, vol) == arch.comm_cost(
                        src, dst, vol
                    )

    def test_empty_occupancy_prices_like_base(self):
        arch, cache = self.build(weight=9)
        for src in range(4):
            for dst in range(4):
                assert cache.cost(src, dst, 2) == arch.comm_cost(src, dst, 2)

    def test_surcharge_applied_on_loaded_route(self):
        arch, cache = self.build(weight=2, occupy=[(1, 2, 5)])
        base = arch.comm_cost(0, 3, 2)
        # route 0->3 crosses the loaded (1,2) link: base + weight*load
        assert cache.cost(0, 3, 2) == base + 2 * 5
        # local transfers stay free
        assert cache.cost(2, 2, 2) == 0

    def test_row_views_agree_with_cost(self):
        arch, cache = self.build(weight=3, occupy=[(0, 1, 4), (2, 3, 1)])
        for vol in (1, 2):
            for src in range(4):
                row = cache.row_from(src, vol)
                for dst in range(4):
                    assert row[dst] == cache.cost(src, dst, vol)
            for dst in range(4):
                col = cache.row_to(dst, vol)
                for src in range(4):
                    assert col[src] == cache.cost(src, dst, vol)

    def test_fallback_misses_are_surcharged_too(self):
        arch, cache = self.build(weight=2, occupy=[(1, 2, 5)])
        base = arch.comm_cost(0, 3, 7)  # volume 7 is not tabulated
        assert cache.cost(0, 3, 7) == base + 2 * 5
        assert cache.misses == 1

    def test_foreign_occupancy_rejected(self):
        arch = LinearArray(4)
        other = LinkOccupancy(LinearArray(4))
        with pytest.raises(ArchitectureError):
            CommCostCache(
                arch, [1], contention=SerializedContention(), occupancy=other
            )

    def test_contention_without_occupancy_rejected(self):
        # no default ledger: a contended price needs a frozen snapshot
        arch = LinearArray(4)
        with pytest.raises(ArchitectureError, match="occupancy"):
            CommCostCache(arch, [1], contention=SerializedContention())

    def test_warm_hit_rate_with_occupancy_enabled(self):
        arch, cache = self.build(weight=1, occupy=[(0, 3, 2)])
        # warm the bands once, then hammer lookups: row builds count as
        # neither hit nor miss, so the warm rate must stay >= 99%
        for _ in range(50):
            for src in range(4):
                for dst in range(4):
                    cache.cost(src, dst, 1)
        assert cache.hit_rate >= 0.99
