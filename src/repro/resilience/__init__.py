"""``repro.resilience`` — fault injection and schedule repair.

The paper's schedules are *architecture-dependent*: when the
architecture degrades (a PE dies, a link is cut) the static schedule is
invalid and must be remapped.  This package closes that loop:

* **fault model** (:mod:`repro.resilience.faults`) — typed
  :class:`PEFault` / :class:`LinkFault` events, permanent or transient,
  grouped into deterministic seeded :class:`FaultCampaign` s;
* **schedule repair** (:mod:`repro.resilience.repair`) — evacuate
  tasks hit by a fault and re-place them with the
  communication-sensitive remapping pass on the surviving PEs
  (:class:`~repro.arch.degraded.DegradedTopology`), falling back to a
  full re-optimisation when local repair regresses too far;
* **fault-injecting simulator** (:mod:`repro.resilience.simfault`) —
  executes a schedule while a campaign kills PEs/links mid-run,
  repairing at iteration boundaries under a progress watchdog.

The ``faults-recover`` fuzz property (:mod:`repro.qa.properties`)
drives seeded campaigns through the simulator and asserts the
invariant: *every run ends in a validated-legal degraded schedule or a
typed error — never a silent corrupt schedule or a hang*.

See ``docs/resilience.md``.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "faults": ("FaultCampaign", "LinkFault", "PEFault", "random_campaign"),
    "repair": ("RepairResult", "degrade", "repair_schedule"),
    "simfault": (
        "FaultOutcome", "FaultSimulationResult", "simulate_with_faults",
    ),
})
