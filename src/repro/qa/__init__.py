"""repro.qa — property-based fuzzing, differential oracles, shrinking.

The correctness backstop of the scheduling pipeline (see
``docs/testing.md``): seeded random sampling of paper-legal CSDFGs and
architectures (:mod:`repro.qa.generate`), a property/metamorphic suite
run on every sample (:mod:`repro.qa.properties`), a delta-debugging
shrinker that turns failures into small JSON reproducers
(:mod:`repro.qa.shrink`, :mod:`repro.qa.case`) and the campaign driver
behind ``repro fuzz`` (:mod:`repro.qa.fuzz`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "case": ("ReproCase", "load_cases", "replay_case"),
    "fuzz": ("FuzzReport", "FuzzTrial", "run_fuzz", "trial_seed"),
    "generate": (
        "GRAPH_FAMILIES", "SIZED_FAMILIES", "ArchSpec", "GraphProfile",
        "sample_arch_spec", "sample_config", "sample_graph",
        "sample_sized_graph",
    ),
    "properties": (
        "PROPERTIES", "architecture_automorphism", "check_all",
        "check_property",
    ),
    "shrink": ("ShrinkResult", "shrink_case"),
})
