"""The two-phase contention pipeline, end to end.

Pins the PR's acceptance criterion: on a shared-bottleneck workload
the contention-aware remapper produces a schedule with a **strictly
lower** contended communication bill than the contention-blind
schedule — and with contention disabled, everything prices
bit-identically to the paper's contention-free model.
"""

from repro.arch import (
    CommCostCache,
    LinkOccupancy,
    Ring,
    SerializedContention,
    contended_cost,
    make_architecture,
)
from repro.core import (
    CycloConfig,
    contention_aware_schedule,
    cyclo_compact,
)
from repro.errors import SchedulingError
from repro.graph import layered_csdfg
from repro.schedule import collect_violations

import pytest


def bottleneck_case():
    """Wide layered graph on a ring: the blind remapper piles traffic
    onto a few links, which contended pricing then punishes."""
    graph = layered_csdfg([3, 3, 3, 3], seed=7)
    arch = Ring(6)
    cfg = CycloConfig(validate_each_step=False)
    return graph, arch, cfg


class TestAcceptanceCriterion:
    def test_aware_schedule_beats_blind_on_contended_bill(self):
        graph, arch, cfg = bottleneck_case()
        model = SerializedContention(weight=3)
        result = contention_aware_schedule(
            graph, arch, config=cfg, model=model
        )
        assert result.final_cost < result.blind_cost
        # the winner really is an aware round, priced by its own cache
        assert result.comm is not None
        assert result.comm.contended

    def test_winner_is_validator_legal_under_its_pricing(self):
        graph, arch, cfg = bottleneck_case()
        model = SerializedContention(weight=3)
        result = contention_aware_schedule(
            graph, arch, config=cfg, model=model
        )
        violations = collect_violations(
            result.graph, arch, result.schedule, comm=result.comm
        )
        assert violations == []

    def test_blind_baseline_always_competes(self):
        # even when aware rounds cannot improve, the result never
        # bills above the baseline
        graph = layered_csdfg([2, 2], seed=3)
        arch = make_architecture("complete", 4)
        result = contention_aware_schedule(
            graph, arch, config=CycloConfig(validate_each_step=False),
            model=SerializedContention(weight=1),
        )
        assert result.final_cost <= result.blind_cost
        assert result.round_costs[0] == result.blind_cost

    def test_reported_costs_match_independent_repricing(self):
        graph, arch, cfg = bottleneck_case()
        model = SerializedContention(weight=3)
        result = contention_aware_schedule(
            graph, arch, config=cfg, model=model
        )
        again = contended_cost(
            result.graph, arch, result.schedule.processor_map(), model
        )
        assert again.contended_cost == result.final_cost


class TestContentionDisabledBitIdentical:
    def test_default_pipeline_unchanged(self):
        graph, arch, cfg = bottleneck_case()
        plain = cyclo_compact(graph, arch, config=cfg)
        # an explicitly passed contention-free cache prices exactly
        # like the default fast path: identical schedules
        witness = cyclo_compact(
            graph, arch, config=cfg,
            comm=CommCostCache.for_graph(arch, graph),
        )
        assert witness.final_length == plain.final_length
        assert witness.schedule.length == plain.schedule.length
        want = {
            n: (p.pe, p.start, p.duration)
            for n, p in (
                (node, plain.schedule.placement(node))
                for node in plain.schedule.nodes()
            )
        }
        got = {
            n: (p.pe, p.start, p.duration)
            for n, p in (
                (node, witness.schedule.placement(node))
                for node in witness.schedule.nodes()
            )
        }
        assert got == want

    def test_config_defaults_resolve_to_no_model(self):
        cfg = CycloConfig()
        assert cfg.contention_model is None
        assert cfg.resolve_contention() is None

    def test_pipeline_requires_a_model(self):
        graph, arch, cfg = bottleneck_case()
        with pytest.raises(SchedulingError):
            contention_aware_schedule(graph, arch, config=cfg)

    def test_config_carries_the_model(self):
        graph, arch, _ = bottleneck_case()
        cfg = CycloConfig(
            validate_each_step=False,
            contention_model="serialized",
            contention_weight=3,
            contention_rounds=2,
        )
        result = contention_aware_schedule(graph, arch, config=cfg)
        assert result.model.name == "serialized"
        assert result.final_cost <= result.blind_cost


class TestRoundPricing:
    def test_each_round_prices_the_previous_rounds_placements(
        self, monkeypatch
    ):
        # every contended round must be priced against occupancy frozen
        # from the round before it: a snapshot hoisted out of the loop
        # goes stale from the second round, and a bare LinkOccupancy()
        # prices the first round blind
        calls = []

        def recording(graph, arch, *, config=None, comm=None):
            result = cyclo_compact(graph, arch, config=config, comm=comm)
            calls.append((comm, result))
            return result

        monkeypatch.setattr("repro.core.pipeline.cyclo_compact", recording)
        graph, arch, cfg = bottleneck_case()
        contention_aware_schedule(
            graph, arch, config=cfg,
            model=SerializedContention(weight=3), rounds=4,
        )
        assert calls[0][0] is None
        for (_, before), (comm, _) in zip(calls, calls[1:]):
            frozen = LinkOccupancy.from_assignment(
                before.graph, arch, before.schedule.processor_map()
            )
            assert comm.occupancy.loads == frozen.loads
        # the blind run plus four aware rounds (no early fixpoint here)
        assert len(calls) == 5
