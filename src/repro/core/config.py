"""Configuration for the cyclo-compaction optimiser."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.arch.comm import (
    CONTENTION_MODELS,
    ContentionModel,
    make_contention_model,
)
from repro.errors import SchedulingError

__all__ = ["CycloConfig"]


@dataclass(frozen=True)
class CycloConfig:
    """Tuning knobs of :func:`repro.core.cyclo.cyclo_compact`.

    Attributes
    ----------
    relaxation:
        Remapping policy (Definition 4.2).  ``True`` allows intermediate
        schedules to grow (the best schedule seen is returned);
        ``False`` enforces the paper's Theorem 4.4 monotonicity — an
        iteration that would lengthen the schedule is rolled back.
    max_iterations:
        Number of rotation+remapping passes (the paper's ``z``).
        ``None`` picks ``3 * |V|``, comfortably past the convergence
        points observed in the paper's examples.
    validate_each_step:
        Debug mode: run the full schedule validator after every
        accepted pass and cross-check the incremental projected
        schedule length and cached placement order against full
        rescans.  Default false: the schedule a run *returns* is
        certified either way (see :func:`repro.core.cyclo.cyclo_compact`).
    pipelined_pes:
        Schedule for pipelined processing elements (paper §2): a task
        blocks its processor for a single control step while its result
        latency stays ``t(v)``.
    remap_strategy:
        Slot search of the remapping phase.  ``"implied"`` (default)
        scores every free slot by its implied schedule length — the
        stronger search this implementation contributes.
        ``"first-fit"`` reproduces the paper's procedure literally:
        earliest available slot at or after the anticipation function's
        value, minimised across processors.
    contention_model:
        Opt-in contention-aware pricing for the two-phase pipeline
        (``contention_aware_schedule``): ``None`` (default) keeps the
        paper's contention-free model — every baseline bit-identical —
        while ``"serialized"`` / ``"scaled"`` name a
        :class:`~repro.arch.comm.ContentionModel` that charges
        transfers for the traffic already queued on their route.
    contention_weight:
        Control steps charged per queued data unit by the chosen
        contention model.
    contention_rounds:
        Reprice-and-reschedule rounds of the two-phase pipeline (each
        round freezes the previous schedule's link occupancy and
        re-runs compaction under the surcharged prices).
    """

    relaxation: bool = True
    max_iterations: int | None = None
    validate_each_step: bool = False
    pipelined_pes: bool = False
    remap_strategy: str = "implied"
    contention_model: str | None = None
    contention_weight: int = 1
    contention_rounds: int = 2

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 0:
            raise SchedulingError(
                f"max_iterations must be >= 0, got {self.max_iterations}"
            )
        if self.remap_strategy not in ("implied", "first-fit"):
            raise SchedulingError(
                f"remap_strategy must be 'implied' or 'first-fit', got "
                f"{self.remap_strategy!r}"
            )
        if (
            self.contention_model is not None
            and self.contention_model not in CONTENTION_MODELS
        ):
            raise SchedulingError(
                f"contention_model must be None or one of "
                f"{sorted(CONTENTION_MODELS)}, got {self.contention_model!r}"
            )
        if self.contention_weight < 1:
            raise SchedulingError(
                f"contention_weight must be >= 1, got {self.contention_weight}"
            )
        if self.contention_rounds < 1:
            raise SchedulingError(
                f"contention_rounds must be >= 1, got {self.contention_rounds}"
            )

    def resolve_contention(self) -> ContentionModel | None:
        """Materialise the configured contention model (``None`` = off)."""
        if self.contention_model is None:
            return None
        return make_contention_model(
            self.contention_model, weight=self.contention_weight
        )

    def iterations_for(self, num_nodes: int) -> int:
        """Resolve ``max_iterations`` for a graph of ``num_nodes``."""
        if self.max_iterations is not None:
            return self.max_iterations
        return 3 * max(1, num_nodes)

    def to_dict(self) -> dict:
        """JSON-safe snapshot (used by fuzz reproducer cases and CLI
        history records)."""
        return {
            "relaxation": self.relaxation,
            "max_iterations": self.max_iterations,
            "validate_each_step": self.validate_each_step,
            "pipelined_pes": self.pipelined_pes,
            "remap_strategy": self.remap_strategy,
            "contention_model": self.contention_model,
            "contention_weight": self.contention_weight,
            "contention_rounds": self.contention_rounds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CycloConfig":
        """Inverse of :meth:`to_dict`.  A key that is not a field — say
        one an old reproducer still carries for a removed option —
        raises :class:`SchedulingError` naming it."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise SchedulingError(
                f"unknown CycloConfig key(s): {', '.join(unknown)}"
            )
        return cls(**data)
