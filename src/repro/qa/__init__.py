"""repro.qa — property-based fuzzing, differential oracles, shrinking.

The correctness backstop of the scheduling pipeline (see
``docs/testing.md``): seeded random sampling of paper-legal CSDFGs and
architectures (:mod:`repro.qa.generate`), a property/metamorphic suite
run on every sample (:mod:`repro.qa.properties`), a delta-debugging
shrinker that turns failures into small JSON reproducers
(:mod:`repro.qa.shrink`, :mod:`repro.qa.case`) and the campaign driver
behind ``repro fuzz`` (:mod:`repro.qa.fuzz`).
"""

from repro.qa.case import ReproCase, load_cases, replay_case
from repro.qa.fuzz import FuzzReport, FuzzTrial, run_fuzz, trial_seed
from repro.qa.generate import (
    GRAPH_FAMILIES,
    SIZED_FAMILIES,
    ArchSpec,
    GraphProfile,
    sample_arch_spec,
    sample_config,
    sample_graph,
    sample_sized_graph,
)
from repro.qa.properties import (
    PROPERTIES,
    architecture_automorphism,
    check_all,
    check_property,
)
from repro.qa.shrink import ShrinkResult, shrink_case

__all__ = [
    "ArchSpec",
    "FuzzReport",
    "FuzzTrial",
    "GRAPH_FAMILIES",
    "GraphProfile",
    "PROPERTIES",
    "ReproCase",
    "SIZED_FAMILIES",
    "ShrinkResult",
    "architecture_automorphism",
    "check_all",
    "check_property",
    "load_cases",
    "replay_case",
    "run_fuzz",
    "sample_arch_spec",
    "sample_config",
    "sample_graph",
    "sample_sized_graph",
    "shrink_case",
    "trial_seed",
]
