"""Benchmark workloads: the paper's examples, DSP filters, random
suites."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "dsp": ("all_pole_iir", "differential_equation_solver", "fir_filter"),
    "filters": ("biquad_cascade", "elliptic_wave_filter", "lattice_filter"),
    "kernels": ("correlator", "fft_stage", "volterra", "wavefront"),
    "paper_examples": (
        "FIGURE1_NODE_TIMES", "FIGURE7_NODE_TIMES", "figure1_csdfg",
        "figure1_mesh", "figure7_csdfg",
    ),
    "random_suite": ("SuiteSpec", "layered_suite", "random_suite"),
    "registry": ("WORKLOADS", "make_workload", "workload_names"),
})

# Eager: ``random_suite`` also names its submodule, and the first import of
# a submodule binds it as a package attribute.  Importing it here, before
# any caller can, leaves the function bound instead of the module.
from repro.workloads.random_suite import random_suite
