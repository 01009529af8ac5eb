"""CommCostCache cross-checked against the uncached hop-cost path.

Satellite of the qa PR: the fast-path ``M`` tables must agree with
``arch.comm_cost`` (and with a by-hand ``hops -> cost-model`` walk) on
every PE pair, every volume, every registered topology kind — healthy
and degraded.  A divergence here is exactly the bug class the fuzzer's
differential oracle exists to catch; this pins it deterministically.
"""

import pytest

from repro.arch import ARCHITECTURE_KINDS, make_architecture
from repro.arch.cache import CommCostCache
from repro.arch.comm import SerializedContention
from repro.arch.contention import LinkOccupancy
from repro.arch.degraded import DegradedTopology
from repro.errors import DeadProcessorError
from repro.qa import sample_graph

# one valid PE count per registered kind (tori need >= 3 per dimension,
# hypercubes powers of two, balanced trees 2**k - 1, permutation-group
# Cayley kinds factorials)
KIND_SIZES = {
    "linear": 4,
    "ring": 5,
    "complete": 4,
    "mesh": 6,
    "torus": 9,
    "hypercube": 8,
    "star": 5,
    "tree": 7,
    "circulant": 8,
    "cayley-star": 6,
    "cayley-bubble": 6,
    "pancake": 6,
}

VOLUMES = (1, 2, 3, 5)


def _assert_matches_direct(arch, cache):
    for volume in VOLUMES:
        for src in arch.processors:
            for dst in arch.processors:
                expected = arch.comm_cost(src, dst, volume)
                assert cache.cost(src, dst, volume) == expected
                # and against the definition itself: M(hops, volume)
                assert expected == arch.comm_model.cost(
                    arch.hops(src, dst), volume
                )


class TestAllKindsHealthy:
    def test_registry_and_size_table_agree(self):
        assert set(KIND_SIZES) == set(ARCHITECTURE_KINDS)

    @pytest.mark.parametrize("kind", sorted(KIND_SIZES))
    def test_cache_matches_direct_costs(self, kind):
        arch = make_architecture(kind, KIND_SIZES[kind])
        cache = CommCostCache(arch, VOLUMES)
        assert cache.volumes == frozenset(VOLUMES)
        _assert_matches_direct(arch, cache)

    @pytest.mark.parametrize("kind", sorted(KIND_SIZES))
    def test_local_messages_are_free(self, kind):
        arch = make_architecture(kind, KIND_SIZES[kind])
        cache = CommCostCache(arch, (1,))
        for pe in arch.processors:
            assert cache.cost(pe, pe, 1) == 0


class TestDegraded:
    @pytest.mark.parametrize("kind", ["ring", "complete", "mesh", "star"])
    def test_cache_matches_on_survivors(self, kind):
        base = make_architecture(kind, KIND_SIZES[kind])
        victim = KIND_SIZES[kind] - 1  # leaf/edge PE keeps things connected
        arch = DegradedTopology(base, failed_pes=(victim,))
        cache = CommCostCache(arch, VOLUMES)
        _assert_matches_direct(arch, cache)

    def test_dead_pe_raises_like_the_uncached_path(self):
        base = make_architecture("complete", 4)
        arch = DegradedTopology(base, failed_pes=(2,))
        cache = CommCostCache(arch, (1,))
        with pytest.raises(DeadProcessorError):
            cache.cost(0, 2, 1)
        with pytest.raises(DeadProcessorError):
            cache.cost(2, 0, 1)


class TestStats:
    def test_warm_lookup_raises_hit_rate(self):
        arch = make_architecture("hypercube", 8)
        cache = CommCostCache(arch, (1,))
        assert cache.hits == cache.misses == 0
        assert cache.hit_rate == 0.0
        cache.cost(0, 5, 7)  # uncached volume: a miss
        cold_rate = cache.hit_rate
        cache.cost(0, 5, 1)  # warm lookup served from the tables
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate > cold_rate
        cache.cost(0, 5, 1)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_entries_grow_lazily_per_touched_band(self):
        arch = make_architecture("ring", 5)
        cache = CommCostCache(arch, (1, 2))
        # rows are built on first touch, one (src, volume) band at a time
        assert cache.entries == 0
        cache.cost(0, 3, 1)
        assert cache.entries == 5
        cache.cost(0, 4, 1)  # same band: no new entries
        assert cache.entries == 5
        cache.cost(2, 0, 2)  # other volume: its own band
        assert cache.entries == 10
        # a full warm sweep materialises at most every band once
        for vol in (1, 2):
            for src in arch.processors:
                for dst in arch.processors:
                    cache.cost(src, dst, vol)
        assert cache.entries == 2 * 5 * 5

    def test_row_build_is_neither_hit_nor_miss(self):
        arch = make_architecture("ring", 5)
        cache = CommCostCache(arch, (1,))
        assert cache.row_from(0, 1) is not None
        assert cache.row_to(1, 1) is not None
        assert cache.hits == cache.misses == 0
        assert cache.entries == 10

    def test_stats_dict(self):
        arch = make_architecture("complete", 4)
        cache = CommCostCache(arch, (1,))
        cache.cost(0, 1, 1)
        cache.cost(0, 1, 9)
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "entries": 4,
            "hit_rate": 0.5,
        }

    def test_compaction_run_stays_warm(self):
        from repro.core import CycloConfig, cyclo_compact
        from repro.qa import sample_sized_graph

        graph = sample_sized_graph("layered", 60, seed=5)
        arch = make_architecture("mesh", 4)
        cache = CommCostCache.for_graph(arch, graph)
        cyclo_compact(graph, arch, config=CycloConfig(max_iterations=4),
                      comm=cache)
        # row builds count as neither hit nor miss, so a plain
        # compaction's lookups must stay >= 99% hits
        assert cache.hit_rate >= 0.99

    def test_publish_stats_lands_in_registry(self):
        from repro.obs import InMemorySink, metrics, sink_installed

        arch = make_architecture("complete", 4)
        cache = CommCostCache(arch, (1,))
        cache.cost(0, 1, 1)
        cache.cost(0, 1, 1)
        cache.cost(0, 1, 9)
        with sink_installed(InMemorySink()):
            cache.publish_stats()
        snap = metrics.snapshot()
        assert snap["counters"]["arch.cache.hits"] == 2
        assert snap["counters"]["arch.cache.misses"] == 1
        assert snap["gauges"]["arch.cache.entries"]["value"] == 4
        assert snap["gauges"]["arch.cache.hit_rate"]["value"] == pytest.approx(
            2 / 3, abs=1e-6
        )

    def test_publish_stats_noop_while_disabled(self):
        from repro.obs import metrics

        arch = make_architecture("complete", 4)
        cache = CommCostCache(arch, (1,))
        cache.cost(0, 1, 1)
        cache.publish_stats()
        assert metrics.snapshot()["counters"] == {}


class TestFallbacks:
    def test_uncached_volume_defers_to_arch(self):
        arch = make_architecture("mesh", 4)
        cache = CommCostCache(arch, (1,))
        assert cache.cost(0, 3, 7) == arch.comm_cost(0, 3, 7)

    def test_for_graph_covers_every_edge_volume(self):
        graph = sample_graph(11)
        arch = make_architecture("ring", 4)
        cache = CommCostCache.for_graph(arch, graph)
        assert {e.volume for e in graph.edges()} <= cache.volumes

    def test_row_views_agree_with_point_lookups(self):
        arch = make_architecture("hypercube", 8)
        cache = CommCostCache(arch, (2,))
        for src in arch.processors:
            row = cache.row_from(src, 2)
            col_of = [cache.row_to(dst, 2)[src] for dst in arch.processors]
            assert row is not None
            assert [row[dst] for dst in arch.processors] == col_of
            for dst in arch.processors:
                assert row[dst] == cache.cost(src, dst, 2)


class TestMaxCost:
    """``max_cost`` is the dearest price any lookup can return, found
    without materialising a row."""

    def _dearest(self, arch, cache, volume):
        alive = arch.processors
        return max(cache.cost(p, q, volume) for p in alive for q in alive)

    @pytest.mark.parametrize("kind", sorted(KIND_SIZES))
    def test_is_the_dearest_lookup(self, kind):
        arch = make_architecture(kind, KIND_SIZES[kind])
        cache = CommCostCache(arch, VOLUMES)
        limits = {vol: cache.max_cost(vol) for vol in VOLUMES}
        assert cache.entries == 0
        for volume in VOLUMES:
            assert limits[volume] == self._dearest(arch, cache, volume)

    def test_degraded_uses_survivors_diameter(self):
        # ring6 minus pe0 is a five-PE path: diameter 4, not 3
        arch = DegradedTopology(make_architecture("ring", 6), failed_pes=[0])
        cache = CommCostCache(arch, (2,))
        assert cache.max_cost(2) == 4 * 2 == self._dearest(arch, cache, 2)

    def test_bounds_contended_prices(self):
        arch = make_architecture("ring", 6)
        occupancy = LinkOccupancy(arch)
        occupancy.add(0, 2, 3)
        occupancy.add(1, 2, 1)
        cache = CommCostCache(
            arch, VOLUMES, contention=SerializedContention(2),
            occupancy=occupancy,
        )
        for volume in VOLUMES:
            # base 3 * volume at the diameter, plus 2 per unit of load 4
            assert cache.max_cost(volume) == 3 * volume + 2 * 4
            assert cache.max_cost(volume) >= self._dearest(arch, cache, volume)

