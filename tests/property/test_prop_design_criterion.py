"""Property tests: the paper's DESIGN criterion, pinned verbatim.

For every edge ``(u, v)`` of every schedule any engine produces, in
every optimiser mode::

    CB(v) + d(u, v) * L  >=  CE(u) + M(PE(u), PE(v); c(u, v)) + 1

checked by :func:`repro.analyze.certify_schedule`, the one oracle of
the criterion, which recomputes ``M`` straight from ``arch.hops`` and
the cost model — deliberately independent of the schedule validator's
walk, so the two implementations cover each other.
"""

from hypothesis import given, settings

from repro.analyze import certify_schedule
from repro.core import CycloConfig, cyclo_compact
from repro.perf.reference import reference_cyclo_compact

from .conftest import architectures, csdfgs

MODES = {
    "relaxed": CycloConfig(relaxation=True, max_iterations=6,
                           validate_each_step=False),
    "strict": CycloConfig(relaxation=False, max_iterations=6,
                          validate_each_step=False),
    "pipelined": CycloConfig(relaxation=True, max_iterations=6,
                             pipelined_pes=True, validate_each_step=False),
    "first-fit": CycloConfig(relaxation=True, max_iterations=6,
                             remap_strategy="first-fit",
                             validate_each_step=False),
}


def _assert_criterion(graph, arch, result, label, config):
    for tag, g, schedule in (
        ("startup", graph, result.initial_schedule),
        ("compacted", result.graph, result.schedule),
    ):
        findings = certify_schedule(
            g, arch, schedule, pipelined_pes=config.pipelined_pes
        )
        violations = [str(d) for d in findings if d.severity == "error"]
        assert violations == [], f"{label}/{tag}: {violations}"


class TestFastEngine:
    @given(csdfgs(max_nodes=9), architectures(max_pes=6))
    @settings(max_examples=30, deadline=None)
    def test_relaxed_and_strict(self, g, arch):
        for label in ("relaxed", "strict"):
            result = cyclo_compact(g, arch, config=MODES[label])
            _assert_criterion(g, arch, result, label, MODES[label])

    @given(csdfgs(max_nodes=8), architectures(max_pes=6))
    @settings(max_examples=20, deadline=None)
    def test_pipelined_and_first_fit(self, g, arch):
        for label in ("pipelined", "first-fit"):
            result = cyclo_compact(g, arch, config=MODES[label])
            _assert_criterion(g, arch, result, label, MODES[label])


class TestReferenceEngine:
    @given(csdfgs(max_nodes=8), architectures(max_pes=5))
    @settings(max_examples=15, deadline=None)
    def test_reference_engine_same_criterion(self, g, arch):
        cfg = MODES["relaxed"]
        result = reference_cyclo_compact(g, arch, config=cfg)
        _assert_criterion(g, arch, result, "reference", cfg)
