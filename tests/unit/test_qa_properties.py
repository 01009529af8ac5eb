"""Unit tests for the qa property suite itself.

Two obligations: every property *holds* on known-good inputs, and every
property *fires* when handed something actually wrong (a suite that can
never fail tests nothing).
"""

import random

import pytest

from repro.arch import make_architecture
from repro.baselines import etf_schedule
from repro.core import CycloConfig, cyclo_compact
from repro.errors import QAError
from repro.graph import CSDFG
from repro.qa import (
    PROPERTIES,
    architecture_automorphism,
    check_all,
    check_property,
    design_criterion_violations,
)
from repro.schedule import ScheduleTable

CFG = CycloConfig(max_iterations=4, validate_each_step=False)


class TestPropertiesHold:
    def test_all_properties_hold_on_figure1(self, figure1, mesh2x2):
        assert check_all(figure1, mesh2x2, CFG, rng=0) == []

    @pytest.mark.parametrize("name", sorted(PROPERTIES))
    def test_each_property_holds_on_tiny_loop(self, tiny_loop, name):
        arch = make_architecture("ring", 3)
        assert check_property(name, tiny_loop, arch, CFG, rng=1) == []

    def test_violations_carry_the_property_prefix(self, figure1, mesh2x2):
        # run one property and confirm the (empty) contract; the prefix
        # behaviour is pinned by the negative tests below
        assert check_property("bounds", figure1, mesh2x2, CFG) == []

    def test_unknown_property_raises(self, figure1, mesh2x2):
        with pytest.raises(QAError, match="unknown property"):
            check_property("nope", figure1, mesh2x2, CFG)


class TestDesignCriterionOracle:
    def test_holds_on_a_real_compaction(self, figure1, mesh2x2):
        result = cyclo_compact(figure1, mesh2x2, config=CFG)
        assert design_criterion_violations(
            result.graph, mesh2x2, result.schedule
        ) == []

    def test_fires_on_a_corrupted_schedule(self, tiny_loop):
        # a -> b with zero delay across one hop: starting both at cs 1
        # ignores a's execution *and* the message transit entirely
        arch = make_architecture("linear", 2)
        broken = ScheduleTable(2, name="broken")
        broken.place("a", 0, 1, 1)
        broken.place("b", 1, 1, 1)
        broken.set_length(2)
        problems = design_criterion_violations(tiny_loop, arch, broken)
        assert problems and "design criterion" in problems[0]

    def test_fires_on_unscheduled_endpoint(self, tiny_loop):
        arch = make_architecture("linear", 2)
        empty = ScheduleTable(2, name="empty")
        empty.set_length(1)
        problems = design_criterion_violations(tiny_loop, arch, empty)
        assert problems and "unscheduled" in problems[0]


class TestArchitectureAutomorphism:
    def test_ring_has_rotation(self):
        arch = make_architecture("ring", 5)
        perm = architecture_automorphism(arch, random.Random(0))
        assert perm is not None and perm != list(range(5))
        dist = arch.distance_matrix
        for p in range(5):
            for q in range(5):
                assert dist[p][q] == dist[perm[p]][perm[q]]

    def test_complete_graph_any_shuffle_works(self):
        arch = make_architecture("complete", 4)
        perm = architecture_automorphism(arch, random.Random(0))
        assert perm is not None

    def test_linear_has_only_the_reversal(self):
        arch = make_architecture("linear", 4)
        perm = architecture_automorphism(arch, random.Random(0))
        assert perm == [3, 2, 1, 0]

    def test_identity_is_never_returned(self):
        # the star's only non-trivial automorphisms permute the leaves
        arch = make_architecture("star", 4)
        for seed in range(10):
            perm = architecture_automorphism(arch, random.Random(seed))
            if perm is not None:
                assert perm != list(range(4))
                assert perm[0] == 0  # the hub is fixed


class TestSuiteCanFail:
    """Inject real bugs and confirm the suite notices (sensitivity)."""

    def test_comm_underpricing_is_caught(self, monkeypatch, figure1):
        from repro.arch.cache import CommCostCache

        real = CommCostCache.cost

        def buggy(self, src, dst, volume):
            cost = real(self, src, dst, volume)
            if src != dst and max(src, dst) >= 2 and cost > 0:
                return cost - 1
            return cost

        monkeypatch.setattr(CommCostCache, "cost", buggy)
        arch = make_architecture("ring", 3)
        found = []
        for seed in range(30):
            from repro.qa import sample_graph

            graph = sample_graph(seed)
            found.extend(check_all(graph, arch, CFG, rng=seed))
            if found:
                break
        assert found, "an under-priced comm cost slipped past the suite"
        assert any(v.startswith("[") for v in found)  # prefixed

    def test_analyzer_agrees_catches_underpriced_comm(self, monkeypatch):
        # the same injected pricing bug, seen through the
        # analyzer-agreement lens: the analyzer passes the inputs, the
        # pipeline produces a validator-illegal schedule, the property
        # must notice the disagreement
        from repro.arch.cache import CommCostCache
        from repro.qa import sample_graph

        real = CommCostCache.cost

        def buggy(self, src, dst, volume):
            cost = real(self, src, dst, volume)
            if src != dst and max(src, dst) >= 2 and cost > 0:
                return cost - 1
            return cost

        monkeypatch.setattr(CommCostCache, "cost", buggy)
        arch = make_architecture("ring", 3)
        found = []
        for seed in range(30):
            graph = sample_graph(seed)
            found = check_property("analyzer-agrees", graph, arch, CFG,
                                   rng=seed)
            if found:
                break
        assert found, "analyzer-agrees missed a validator-illegal schedule"
        assert "validator-illegal" in found[0]

    def test_analyzer_agrees_accepts_typed_refusal(self):
        # a zero-delay cycle: the analyzer rejects the input (RA101)
        # and the pipeline refuses with a typed error — agreement holds
        g = CSDFG("deadlocked")
        g.add_node("a", 1)
        g.add_node("b", 1)
        g.add_edge("a", "b", 0, 1)
        g.add_edge("b", "a", 0, 1)
        arch = make_architecture("ring", 3)
        assert check_property("analyzer-agrees", g, arch, CFG, rng=0) == []

    def test_etf_gated_off_heterogeneous(self, figure1):
        # heterogeneous machines are outside ETF's contract; the
        # legality property must not call it there (no false alarms)
        arch = make_architecture("complete", 3).with_time_scales((1, 2, 1))
        assert arch.is_heterogeneous
        assert check_property("schedules-legal", figure1, arch, CFG) == []


class TestEtfBaselineStillSane:
    def test_etf_schedules_fuzz_samples(self):
        from repro.qa import sample_graph

        arch = make_architecture("complete", 3)
        for seed in range(20):
            graph = sample_graph(seed)
            schedule = etf_schedule(graph, arch)
            assert schedule.length >= 1


class TestSanitizerAgrees:
    def test_registered(self):
        assert "sanitizer-agrees" in PROPERTIES

    def test_holds_on_figure1(self, figure1, mesh2x2):
        assert check_property(
            "sanitizer-agrees", figure1, mesh2x2, CFG, rng=3
        ) == []

    def test_fires_on_run_dependent_pipeline(self, figure1, mesh2x2,
                                             monkeypatch):
        # simulate nondeterminism the way the sanitizer would see it:
        # the second run of the pipeline behaves differently (here, a
        # crippled iteration budget stands in for hash-seed dependence)
        import repro.qa.properties as props

        real = props.cyclo_compact
        calls = {"n": 0}

        def flaky(graph, arch, config=None, **kw):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                config = CycloConfig(max_iterations=0,
                                     validate_each_step=False)
            return real(graph, arch, config=config, **kw)

        monkeypatch.setattr(props, "cyclo_compact", flaky)
        found = check_property(
            "sanitizer-agrees", figure1, mesh2x2, CFG, rng=3
        )
        assert found, "sanitizer-agrees missed a run-dependent pipeline"
        assert "not deterministic" in found[0]


class TestFeasibleLengthMinimal:
    def test_registered(self):
        assert "feasible-length-minimal" in PROPERTIES

    @pytest.mark.parametrize("seed", range(12))
    def test_holds_on_fixed_seeds(self, seed):
        from repro.qa import sample_arch_spec, sample_config, sample_graph

        rng = random.Random(seed)
        graph = sample_graph(rng)
        arch = sample_arch_spec(rng, degraded_prob=0.5).build()
        cfg = sample_config(rng)
        assert check_property(
            "feasible-length-minimal", graph, arch, cfg, rng=seed
        ) == []

    def test_fires_when_exclusivity_is_skipped(self, monkeypatch):
        # a pad that trusts the issue cells and never re-checks execution
        # overlap accepts the occupied-PE corruption: on one PE the only
        # move issues v at cs2, inside u's span (no edge can object)
        import repro.qa.properties as props

        g = CSDFG("pair")
        g.add_node("u", 2)
        g.add_node("v", 2)
        g.add_edge("u", "v", 1, 1)

        real = props.minimum_feasible_length

        def cell_trusting(graph, arch, schedule, *, pipelined_pes=False,
                          comm=None):
            return real(graph, arch, schedule, pipelined_pes=True, comm=comm)

        monkeypatch.setattr(props, "minimum_feasible_length", cell_trusting)
        found = check_property(
            "feasible-length-minimal", g, make_architecture("complete", 1),
            CFG, rng=0,
        )
        assert found and all("occupied-pe" in v for v in found), found

    def test_fires_on_an_off_by_one_length(self, figure1, mesh2x2,
                                          monkeypatch):
        import repro.qa.properties as props

        real = props.minimum_feasible_length

        def one_longer(*args, **kw):
            length = real(*args, **kw)
            return None if length is None else length + 1

        monkeypatch.setattr(props, "minimum_feasible_length", one_longer)
        found = check_property(
            "feasible-length-minimal", figure1, mesh2x2, CFG, rng=0
        )
        assert found and all("minimum_feasible_length" in v for v in found)
