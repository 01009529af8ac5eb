"""Property tests: buffer sizing, contention replay and pipelined-PE
invariants on random instances."""

from hypothesis import given, settings

from repro.arch import LinearArray
from repro.core import CycloConfig, cyclo_compact, start_up_schedule
from repro.graph import random_csdfg
from repro.schedule import collect_violations
from repro.sim import buffer_requirements, simulate, simulate_contended

from .conftest import architectures, csdfgs

PIPED = CycloConfig(
    relaxation=True, max_iterations=6, validate_each_step=False,
    pipelined_pes=True,
)


class TestBufferProperties:
    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=25, deadline=None)
    def test_every_edge_sized_nonnegative(self, g, arch):
        s = start_up_schedule(g, arch)
        report = buffer_requirements(g, arch, s, iterations=5)
        assert set(report.per_edge) == {e.key for e in g.edges()}
        assert all(v >= 0 for v in report.per_edge.values())
        assert report.total_tokens == sum(report.per_edge.values())

    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=20, deadline=None)
    def test_words_at_least_tokens(self, g, arch):
        s = start_up_schedule(g, arch)
        report = buffer_requirements(g, arch, s, iterations=5)
        assert report.total_words >= report.total_tokens  # volumes >= 1


class TestContentionProperties:
    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=25, deadline=None)
    def test_actual_never_earlier_than_model(self, g, arch):
        s = start_up_schedule(g, arch)
        report = simulate_contended(g, arch, s, iterations=4)
        for m in report.messages:
            assert m.actual_arrival >= m.model_arrival
            assert m.queueing >= 0
            assert m.lateness >= 0
        assert report.late_messages <= len(report.messages)

    @given(csdfgs(max_nodes=7), architectures(max_pes=4))
    @settings(max_examples=15, deadline=None)
    def test_model_valid_schedules_only_miss_by_queueing(self, g, arch):
        s = start_up_schedule(g, arch)
        report = simulate_contended(g, arch, s, iterations=4)
        for m in report.messages:
            if m.queueing == 0:
                # without queueing the no-congestion model guarantees
                # arrival in time
                assert m.lateness == 0


class TestPipelinedProperties:
    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=25, deadline=None)
    def test_pipelined_cyclo_legal_and_simulates(self, g, arch):
        result = cyclo_compact(g, arch, config=PIPED)
        assert (
            collect_violations(
                result.graph, arch, result.schedule, pipelined_pes=True
            )
            == []
        )
        simulate(
            result.graph, arch, result.schedule, iterations=4,
            pipelined_pes=True,
        )

    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=20, deadline=None)
    def test_plain_startup_is_legal_when_pipelined(self, g, arch):
        # a plain placement blocks its PE for the task's whole run, a
        # pipelined one for a single step, so every plain schedule is a
        # legal pipelined one; the converse bound on makespans does not
        # hold (see test_pipelined_startup_can_be_longer)
        plain = start_up_schedule(g, arch)
        assert collect_violations(g, arch, plain, pipelined_pes=True) == []

    def test_pipelined_startup_can_be_longer(self):
        # Graham's list-scheduling anomaly: freeing PEs earlier changes
        # which ready node claims which PE, and here that lengthens the
        # pipelined start-up schedule past the plain one
        g = random_csdfg(
            7, seed=231, edge_prob=0.3, back_edge_prob=0.1,
            max_time=3, max_delay=3, max_volume=3,
        )
        arch = LinearArray(4)
        plain = start_up_schedule(g, arch)
        piped = start_up_schedule(g, arch, pipelined_pes=True)
        assert (plain.makespan, piped.makespan) == (3, 4)
        assert (plain.length, piped.length) == (4, 6)
        assert collect_violations(g, arch, plain, pipelined_pes=True) == []
