"""Typed fault events and deterministic seeded fault campaigns.

A fault names the hardware it kills (:class:`PEFault` a processor,
:class:`LinkFault` an undirected link), when it strikes (``at_step``, a
global control step of the simulated execution), and for how long
(``duration=None`` means permanent; a transient fault heals after
``duration`` control steps).  A :class:`FaultCampaign` is an ordered,
JSON round-trippable list of faults — the unit consumed by the repair
engine, the fault-injecting simulator and the ``faults-recover`` fuzz
property.

Campaigns are *deterministic*: :func:`random_campaign` derives every
choice from a seed, so a failing campaign can be replayed bit-for-bit
from its seed alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.arch.topology import Architecture
from repro.errors import ArchitectureError

__all__ = ["PEFault", "LinkFault", "FaultCampaign", "random_campaign"]


@dataclass(frozen=True)
class PEFault:
    """Processor ``pe`` stops executing at control step ``at_step``.

    ``duration=None`` is a permanent (fail-stop) fault; otherwise the
    PE returns to service ``duration`` control steps later.
    """

    pe: int
    at_step: int = 1
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.pe < 0:
            raise ArchitectureError(f"negative PE id {self.pe}")
        if self.at_step < 1:
            raise ArchitectureError(
                f"faults strike at control step >= 1, got {self.at_step}"
            )
        if self.duration is not None and self.duration < 1:
            raise ArchitectureError(
                f"transient duration must be >= 1, got {self.duration}"
            )

    @property
    def permanent(self) -> bool:
        return self.duration is None

    def describe(self) -> str:
        kind = "permanent" if self.permanent else f"{self.duration}-step"
        return f"{kind} failure of pe{self.pe + 1} at cs {self.at_step}"

    def to_dict(self) -> dict:
        return {
            "kind": "pe",
            "pe": self.pe,
            "at_step": self.at_step,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class LinkFault:
    """Undirected link ``(a, b)`` goes down at control step ``at_step``."""

    a: int
    b: int
    at_step: int = 1
    duration: int | None = None

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or self.a == self.b:
            raise ArchitectureError(f"bad link ({self.a}, {self.b})")
        if self.a > self.b:  # canonical a < b, matching Architecture.links
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)
        if self.at_step < 1:
            raise ArchitectureError(
                f"faults strike at control step >= 1, got {self.at_step}"
            )
        if self.duration is not None and self.duration < 1:
            raise ArchitectureError(
                f"transient duration must be >= 1, got {self.duration}"
            )

    @property
    def link(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def permanent(self) -> bool:
        return self.duration is None

    def describe(self) -> str:
        kind = "permanent" if self.permanent else f"{self.duration}-step"
        return (
            f"{kind} failure of link pe{self.a + 1}-pe{self.b + 1} "
            f"at cs {self.at_step}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": "link",
            "a": self.a,
            "b": self.b,
            "at_step": self.at_step,
            "duration": self.duration,
        }


Fault = PEFault | LinkFault


@dataclass
class FaultCampaign:
    """An ordered list of faults plus the seed that produced it."""

    faults: list[Fault] = field(default_factory=list)
    seed: int | None = None
    name: str = "campaign"

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def ordered(self) -> list[Fault]:
        """Faults by strike time (stable for equal times)."""
        return sorted(self.faults, key=lambda f: f.at_step)

    def pe_faults(self) -> list[PEFault]:
        return [f for f in self.faults if isinstance(f, PEFault)]

    def link_faults(self) -> list[LinkFault]:
        return [f for f in self.faults if isinstance(f, LinkFault)]

    def describe(self) -> str:
        head = f"campaign {self.name!r}"
        if self.seed is not None:
            head += f" (seed {self.seed})"
        if not self.faults:
            return head + ": no faults"
        lines = [head + ":"]
        for fault in self.ordered():
            lines.append(f"  - {fault.describe()}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultCampaign":
        faults: list[Fault] = []
        for f in data.get("faults", []):
            if f["kind"] == "pe":
                faults.append(
                    PEFault(f["pe"], f["at_step"], f.get("duration"))
                )
            elif f["kind"] == "link":
                faults.append(
                    LinkFault(f["a"], f["b"], f["at_step"], f.get("duration"))
                )
            else:
                raise ArchitectureError(f"unknown fault kind {f['kind']!r}")
        return cls(
            faults=faults,
            seed=data.get("seed"),
            name=data.get("name", "campaign"),
        )

    def to_json(self, **dumps_kwargs) -> str:
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultCampaign":
        return cls.from_dict(json.loads(text))


def random_campaign(
    arch: Architecture,
    *,
    seed: int,
    num_faults: int = 1,
    horizon: int = 50,
    link_fraction: float = 0.5,
    transient_fraction: float = 0.0,
    name: str | None = None,
) -> FaultCampaign:
    """A deterministic seeded campaign against ``arch``.

    Never kills the last surviving PE; faults may still disconnect the
    network (that is the point — the repair layer must turn it into a
    typed error).  ``link_fraction`` of the faults target links,
    ``transient_fraction`` are transient with a random duration.
    """
    if num_faults < 0:
        raise ArchitectureError(f"num_faults must be >= 0, got {num_faults}")
    rng = random.Random(seed)
    faults: list[Fault] = []
    alive = [pe for pe in arch.processors]
    links = list(arch.links)
    for _ in range(num_faults):
        at_step = rng.randint(1, max(1, horizon))
        duration = None
        if transient_fraction > 0 and rng.random() < transient_fraction:
            duration = rng.randint(1, max(1, horizon // 2))
        want_link = links and rng.random() < link_fraction
        if want_link:
            a, b = rng.choice(links)
            faults.append(LinkFault(a, b, at_step, duration))
            links.remove((min(a, b), max(a, b)))
        elif len(alive) > 1:
            pe = rng.choice(alive)
            faults.append(PEFault(pe, at_step, duration))
            alive.remove(pe)
            links = [l for l in links if pe not in l]
        # else: one PE left and no links to cut — campaign saturates
    return FaultCampaign(
        faults=faults,
        seed=seed,
        name=name if name is not None else f"random-{arch.name}-s{seed}",
    )
