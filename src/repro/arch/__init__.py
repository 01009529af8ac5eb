"""Architecture substrate: topologies, communication models, routing.

The paper's five experimental architectures (linear array, ring,
completely connected, 2-D mesh, n-cube) plus extensions (torus, star,
balanced tree, custom link lists).  Distances are store-and-forward hop
counts by default; see :mod:`repro.arch.comm` for alternative cost
models.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("CommCostCache",),
    "cayley": (
        "BubbleSortGraph", "CayleyTopology", "Circulant", "PancakeGraph",
        "StarGraph",
    ),
    "comm": (
        "CONTENTION_MODELS", "CommModel", "ConstantLatencyModel",
        "ContentionModel", "NoContention", "ScaledContention",
        "SerializedContention", "StoreAndForwardModel", "WormholeModel",
        "ZeroCommModel", "make_contention_model",
    ),
    "complete": ("CompletelyConnected",),
    "contention": (
        "ContendedCostReport", "LinkOccupancy", "contended_cost",
    ),
    "custom": (
        "CustomArchitecture", "from_adjacency", "load_architecture",
        "save_architecture",
    ),
    "degraded": ("DegradedTopology",),
    "hypercube": ("Hypercube",),
    "linear": ("LinearArray",),
    "mesh": ("Mesh2D",),
    "registry": (
        "ARCHITECTURE_KINDS", "make_architecture", "paper_architectures",
    ),
    "ring": ("Ring",),
    "routing": ("ecube_route", "route", "shortest_path", "xy_route"),
    "star": ("Star",),
    "topology": ("Architecture",),
    "torus": ("Torus2D",),
    "visualize": ("render_architecture", "render_processor_load"),
    "tree": ("BalancedTree",),
})
