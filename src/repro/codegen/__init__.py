"""Code generation: per-PE programs from scheduling results."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "program": (
        "ComputeOp", "LoopProgram", "PEProgram", "RecvOp", "SendOp",
        "generate_program",
    ),
})
