"""Fault recovery: the resilience subsystem's end-to-end invariant.

The ``faults-recover`` fuzz property strikes a seeded fault campaign at
a start-up schedule and runs it under fault injection: every run must
end on a validated-legal schedule of the surviving topology or in a
typed error — never a silent corrupt schedule and never a hang.  The
campaign driver itself (trial seeding, ``--jobs`` determinism, time
budgets, worker metrics) is pinned by ``test_fuzz_smoke.py`` and
``tests/unit/test_perf_parallel.py``.
"""

import dataclasses

import pytest

from repro.arch import make_architecture
from repro.core import CycloConfig
from repro.errors import ScheduleValidationError, StallDetectedError
from repro.qa import properties
from repro.qa.case import ReproCase, replay_case
from repro.qa.fuzz import run_fuzz
from repro.qa.properties import check_property
from repro.resilience import simfault
from repro.resilience.simfault import simulate_with_faults
from repro.workloads import make_workload

WORKLOADS = ("figure1", "biquad2", "diffeq")
TOPOLOGIES = ("linear", "ring", "mesh", "hypercube")


@pytest.fixture
def runs(monkeypatch):
    """``(campaign, ending)`` of every faulted run the property starts."""
    seen = []

    def recording(graph, arch, schedule, iterations, campaign, **kwargs):
        try:
            run = simulate_with_faults(
                graph, arch, schedule, iterations, campaign, **kwargs
            )
        except Exception as exc:
            seen.append((campaign.to_dict(), type(exc).__name__))
            raise
        seen.append((campaign.to_dict(), "survived"))
        return run

    monkeypatch.setattr(properties, "simulate_with_faults", recording)
    return seen


def grid_trial(index):
    """Trial ``index`` of the workload x topology grid at 8 PEs."""
    graph = make_workload(WORKLOADS[(index // len(TOPOLOGIES)) % 3])
    arch = make_architecture(TOPOLOGIES[index % len(TOPOLOGIES)], 8)
    return check_property(
        "faults-recover", graph, arch, CycloConfig(), rng=2026 + index
    )


class TestChaosInvariant:
    def test_200_campaigns_hold_the_invariant(self, runs):
        for index in range(200):
            assert grid_trial(index) == [], index
        assert len(runs) == 200
        endings = {ending for _, ending in runs}
        # the grid must exercise both sides of the contract
        assert "survived" in endings
        assert "DisconnectedTopologyError" in endings
        assert all(campaign["faults"] for campaign, _ in runs)

    def test_trials_are_replayable(self, runs):
        grid_trial(5)
        grid_trial(5)
        assert runs[0] == runs[1]

    def test_outcomes_reach_metrics(self):
        from repro.obs import InMemorySink, install_sink, metrics, remove_sink

        sink = InMemorySink()
        install_sink(sink)  # metrics are no-ops without a sink
        try:
            metrics.reset()
            run_fuzz(trials=6, seed=0, properties=("faults-recover",))
            counters = metrics.snapshot()["counters"]
        finally:
            remove_sink(sink)
        assert counters.get("qa.fuzz.trials") == 6
        assert counters.get("qa.fuzz.outcome.ok") == 6
        # the simulator's per-fault outcomes land in the registry too
        assert counters.get("resilience.sim.fault_events", 0) >= 6


class TestSeededBreaches:
    """A fault-recovery defect fails the property, and the fuzzer
    shrinks it to a reproducer that fails again on replay."""

    @staticmethod
    def assert_caught(trials):
        report = run_fuzz(
            trials=trials, seed=0, properties=("faults-recover",)
        )
        assert report.failures, report.describe()
        for trial in report.failures:
            shrunk = ReproCase.from_json(trial.shrunk_json)
            assert shrunk.graph.num_nodes <= trial.num_nodes
            assert replay_case(shrunk)

    def test_illegal_repair_fails_the_property(self, monkeypatch):
        repair = simfault.repair_schedule

        def dropping_a_task(*args, **kwargs):
            result = repair(*args, **kwargs)
            broken = result.schedule.copy()
            broken.remove(next(iter(broken.nodes())))
            return dataclasses.replace(result, schedule=broken)

        monkeypatch.setattr(simfault, "repair_schedule", dropping_a_task)
        self.assert_caught(trials=2)

    def test_untyped_error_fails_the_property(self, monkeypatch):
        def crashing(*args, **kwargs):
            raise RuntimeError("seeded crash")

        monkeypatch.setattr(properties, "simulate_with_faults", crashing)
        self.assert_caught(trials=2)


class TestWatchdog:
    def test_saturating_campaign_cannot_hang(self):
        """A campaign with more strikes than the watchdog allows
        consecutive reconfigurations must end in a typed error, not
        spin."""
        from repro.core import start_up_schedule
        from repro.resilience import FaultCampaign, LinkFault

        graph = make_workload("figure1")
        arch = make_architecture("complete", 4)
        schedule = start_up_schedule(graph, arch)
        # strike a new transient link fault at every iteration boundary
        # forever (heal+strike each boundary): watchdog_limit=0 turns
        # the very first reconfiguration into a stall
        campaign = FaultCampaign(
            [LinkFault(0, 1, at_step=1, duration=1)]
        )
        with pytest.raises(StallDetectedError):
            simulate_with_faults(
                graph, arch, schedule, 3, campaign, watchdog_limit=0
            )


class TestValidationWalks:
    """Only a reconfiguration changes the running schedule, so it is
    validated on entry and after each reconfiguration, not before every
    iteration."""

    @staticmethod
    def run(monkeypatch):
        from repro.core import start_up_schedule
        from repro.resilience import FaultCampaign, LinkFault

        walks = []
        validate = simfault.validate_schedule

        def counting(*args, **kwargs):
            walks.append(args[2])
            return validate(*args, **kwargs)

        monkeypatch.setattr(simfault, "validate_schedule", counting)
        graph = make_workload("figure7")
        arch = make_architecture("mesh", 8)
        result = simulate_with_faults(
            graph, arch, start_up_schedule(graph, arch), 50,
            FaultCampaign([LinkFault(0, 1, at_step=20)]),
        )
        return result, walks

    def test_one_walk_on_entry_and_one_per_reconfiguration(self, monkeypatch):
        result, walks = self.run(monkeypatch)
        assert result.iterations == 50
        assert result.reconfigurations == 1
        assert len(walks) == 1 + result.reconfigurations
        assert walks[-1] is result.final_schedule

    def test_corrupt_repaired_table_still_raises(self, monkeypatch):
        repair = simfault.repair_schedule

        def dropping_a_task(*args, **kwargs):
            result = repair(*args, **kwargs)
            broken = result.schedule.copy()
            broken.remove(next(iter(broken.nodes())))
            return dataclasses.replace(result, schedule=broken)

        monkeypatch.setattr(simfault, "repair_schedule", dropping_a_task)
        with pytest.raises(ScheduleValidationError, match="not scheduled"):
            self.run(monkeypatch)
