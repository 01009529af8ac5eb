"""repro — cyclo-compaction scheduling (ICPP'95 reproduction).

Architecture-dependent loop scheduling via communication-sensitive
remapping: schedule cyclic, general-time data flow graphs onto
multiprocessor topologies, accounting for store-and-forward
communication delays, and compact the schedule by implicit retiming
(rotation) plus communication-sensitive remapping.

Quick start::

    from repro import cyclo_compact, figure1_csdfg, figure1_mesh

    result = cyclo_compact(figure1_csdfg(), figure1_mesh())
    print(result.initial_length, "->", result.final_length)   # 7 -> 5

Packages: :mod:`repro.graph` (CSDFG substrate), :mod:`repro.arch`
(topologies + communication models), :mod:`repro.schedule` (tables +
validator), :mod:`repro.retiming`, :mod:`repro.core` (the paper's
algorithms), :mod:`repro.baselines`, :mod:`repro.workloads`,
:mod:`repro.analysis`, :mod:`repro.obs` (tracing/metrics),
:mod:`repro.resilience` (fault injection, schedule repair,
fault-injecting simulation).

Every package exports its names lazily (:mod:`repro._exports`):
importing one runs only its ``__init__``, and a name loads its module
on first access.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arch": (
        "Architecture", "CompletelyConnected", "Hypercube", "LinearArray",
        "Mesh2D", "Ring", "make_architecture", "paper_architectures",
    ),
    "codegen": ("generate_program",),
    "core": (
        "CycloConfig", "CycloResult", "OptimizeResult", "cyclo_compact",
        "optimize", "refine_schedule", "start_up_schedule",
    ),
    "errors": ("ReproError",),
    "graph": ("CSDFG", "iteration_bound", "validate_csdfg"),
    "schedule": (
        "ScheduleTable", "compute_metrics", "render_gantt", "render_table",
        "validate_schedule",
    ),
    "sim": ("buffer_requirements", "simulate"),
    "workloads": (
        "elliptic_wave_filter", "figure1_csdfg", "figure1_mesh",
        "figure7_csdfg", "lattice_filter", "make_workload",
    ),
})
__all__ += ["__version__"]
