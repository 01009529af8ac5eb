"""CSDFG substrate: graph structure, validation, properties, transforms.

Public surface re-exported here; see the submodules for details:

* :mod:`repro.graph.csdfg` — the :class:`CSDFG` structure itself,
* :mod:`repro.graph.validation` — legality checks,
* :mod:`repro.graph.properties` — ASAP/ALAP, critical path, iteration
  bound,
* :mod:`repro.graph.transform` — slowdown / unfolding / rescaling,
* :mod:`repro.graph.io` — JSON / DOT / edge-list serialization,
* :mod:`repro.graph.generators` — random and parametric builders.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "csdfg": ("CSDFG", "Edge", "Node"),
    "cycles": (
        "karp_maximum_cycle_ratio", "recursive_core", "scc_condensation",
        "strongly_connected_components",
    ),
    "generators": (
        "chain_csdfg", "fork_join_csdfg", "layered_csdfg", "random_csdfg",
        "random_dag", "ring_csdfg",
    ),
    "io": (
        "from_edge_list", "from_json", "load_json", "save_json", "to_dot",
        "to_edge_list", "to_json",
    ),
    "properties": (
        "alap_times", "asap_times", "critical_path_length",
        "critical_path_nodes", "iteration_bound", "iteration_bound_exact",
        "parallelism_profile",
    ),
    "transform": (
        "merge_parallel_edges", "reverse", "scale_times", "scale_volumes",
        "slowdown", "unfold",
    ),
    "validation": (
        "collect_issues", "find_zero_delay_cycle", "is_legal",
        "topological_order_zero_delay", "validate_csdfg",
    ),
})
