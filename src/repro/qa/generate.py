"""Seeded random sampling of (graph, architecture, config) triples.

The fuzzer explores the open space of inputs the paper defines, not just
the registered workloads: any CSDFG is fair game as long as every
directed cycle carries positive total delay, ``t(v) >= 1`` and
``c(e) >= 1``.  Everything here is deterministic given a
:class:`random.Random` (or an integer seed): the same seed always
produces the same triple, which is what makes a failing trial
replayable and shrinkable.

Graphs come from a small set of structural *families* (random order
graphs, layered pipelines, rings, chains, fork-joins) whose parameters
are drawn from a :class:`GraphProfile`; every sample is checked against
:func:`repro.graph.validation.is_legal` before it is handed out, so a
generator bug can never masquerade as a scheduler bug.

Architectures are sampled across **all twelve registered topology
kinds** (:data:`repro.arch.registry.ARCHITECTURE_KINDS`), respecting
each kind's PE-count constraints (hypercubes need powers of two,
balanced trees need ``2**k - 1``).  An :class:`ArchSpec` is the
JSON-serializable recipe for the sampled instance — reproducer cases
store the spec, not the object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.arch.degraded import DegradedTopology
from repro.arch.registry import ARCHITECTURE_KINDS, make_architecture
from repro.arch.topology import Architecture
from repro.core.config import CycloConfig
from repro.errors import QAError
from repro.graph.csdfg import CSDFG
from repro.graph.generators import (
    chain_csdfg,
    fork_join_csdfg,
    layered_csdfg,
    random_csdfg,
    ring_csdfg,
)
from repro.graph.validation import is_legal

__all__ = [
    "GraphProfile",
    "ArchSpec",
    "sample_graph",
    "sample_sized_graph",
    "sample_arch_spec",
    "sample_config",
    "GRAPH_FAMILIES",
    "SIZED_FAMILIES",
]

#: Structural families the graph sampler draws from.
GRAPH_FAMILIES: tuple[str, ...] = (
    "random",
    "layered",
    "ring",
    "chain",
    "fork-join",
)

#: PE counts that satisfy each kind's constructor constraints (rings
#: need >= 3 PEs, tori >= 3 per dimension, hypercubes powers of two,
#: balanced trees ``2**k - 1``).
_VALID_PE_COUNTS: dict[str, tuple[int, ...]] = {
    "linear": (2, 3, 4, 5, 6, 8),
    "ring": (3, 4, 5, 6, 8),
    "complete": (2, 3, 4, 5, 6, 8),
    "mesh": (2, 4, 6, 8, 9),
    "torus": (9, 12, 16),
    "hypercube": (2, 4, 8),
    "star": (2, 3, 4, 5, 6, 8),
    "tree": (3, 7, 15),
    "circulant": (4, 5, 6, 8),
    "cayley-star": (2, 6, 24),
    "cayley-bubble": (2, 6, 24),
    "pancake": (2, 6, 24),
}


@dataclass(frozen=True)
class GraphProfile:
    """Tunable size/density/delay envelope for the graph sampler.

    The defaults keep graphs small enough that a trial (two optimiser
    engines plus the metamorphic re-runs) stays in the low tens of
    milliseconds, which is what lets a 200-trial campaign finish in
    seconds.
    """

    min_nodes: int = 2
    max_nodes: int = 10
    max_time: int = 3
    max_delay: int = 3
    max_volume: int = 3
    edge_probs: tuple[float, ...] = (0.15, 0.3, 0.5)
    back_edge_probs: tuple[float, ...] = (0.0, 0.1, 0.3)
    families: tuple[str, ...] = GRAPH_FAMILIES

    def __post_init__(self) -> None:
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise QAError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"{self.min_nodes}..{self.max_nodes}"
            )
        if min(self.max_time, self.max_delay + 1, self.max_volume) < 1:
            raise QAError("max_time/max_volume must be >= 1, max_delay >= 0")
        unknown = set(self.families) - set(GRAPH_FAMILIES)
        if unknown:
            raise QAError(
                f"unknown graph families {sorted(unknown)}; "
                f"known: {list(GRAPH_FAMILIES)}"
            )


@dataclass(frozen=True)
class ArchSpec:
    """JSON-serializable recipe for a sampled architecture.

    ``failed_pes``/``failed_links`` describe an optional degradation
    layered on the healthy instance (used by the cache cross-check
    suite; the default fuzz profile samples healthy machines).
    """

    kind: str
    num_pes: int
    failed_pes: tuple[int, ...] = ()
    failed_links: tuple[tuple[int, int], ...] = ()

    def build(self) -> Architecture:
        """Materialise the architecture this spec describes."""
        arch = make_architecture(self.kind, self.num_pes)
        if self.failed_pes or self.failed_links:
            arch = DegradedTopology(
                arch,
                failed_pes=self.failed_pes,
                failed_links=self.failed_links,
            )
        return arch

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_pes": self.num_pes,
            "failed_pes": list(self.failed_pes),
            "failed_links": [list(link) for link in self.failed_links],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchSpec":
        try:
            return cls(
                kind=data["kind"],
                num_pes=int(data["num_pes"]),
                failed_pes=tuple(int(p) for p in data.get("failed_pes", ())),
                failed_links=tuple(
                    (int(a), int(b)) for a, b in data.get("failed_links", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise QAError(f"malformed architecture spec {data!r}") from exc


def _rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def sample_graph(
    seed_or_rng: int | random.Random, profile: GraphProfile | None = None
) -> CSDFG:
    """Draw one paper-legal CSDFG from ``profile``.

    Every returned graph satisfies the paper's legality conditions by
    construction *and* by an explicit :func:`is_legal` check.
    """
    rng = _rng(seed_or_rng)
    prof = profile if profile is not None else GraphProfile()
    family = rng.choice(prof.families)
    n = rng.randint(prof.min_nodes, prof.max_nodes)
    sub_seed = rng.randrange(1 << 30)
    if family == "random":
        graph = random_csdfg(
            n,
            seed=sub_seed,
            edge_prob=rng.choice(prof.edge_probs),
            back_edge_prob=rng.choice(prof.back_edge_probs),
            max_time=prof.max_time,
            max_delay=prof.max_delay,
            max_volume=prof.max_volume,
        )
    elif family == "layered":
        sizes = []
        remaining = max(2, n)
        while remaining > 0:
            width = rng.randint(1, min(3, remaining))
            sizes.append(width)
            remaining -= width
        graph = layered_csdfg(
            sizes,
            seed=sub_seed,
            fanout=rng.randint(1, 2),
            feedback_edges=rng.randint(1, 2),
            feedback_delay=rng.randint(1, max(1, prof.max_delay)),
            max_time=prof.max_time,
            max_volume=prof.max_volume,
        )
    elif family == "ring":
        graph = ring_csdfg(
            max(2, n),
            delay_per_edge=rng.randint(1, max(1, prof.max_delay)),
            time=rng.randint(1, prof.max_time),
            volume=rng.randint(1, prof.max_volume),
        )
    elif family == "chain":
        graph = chain_csdfg(
            n,
            time=rng.randint(1, prof.max_time),
            volume=rng.randint(1, prof.max_volume),
            loop_delay=rng.randint(1, max(1, prof.max_delay)),
        )
    else:  # fork-join
        width = rng.randint(1, max(1, (n - 2) // 2)) if n > 3 else 1
        stages = rng.randint(1, 2)
        graph = fork_join_csdfg(
            width,
            stages=stages,
            time=rng.randint(1, prof.max_time),
            volume=rng.randint(1, prof.max_volume),
            loop_delay=rng.randint(1, max(1, prof.max_delay)),
        )
    if not is_legal(graph):  # pragma: no cover - generator invariant
        raise QAError(
            f"sampled graph {graph.name!r} is illegal (generator bug)"
        )
    return graph


#: Families :func:`sample_sized_graph` can build at an exact node
#: count.  "random" is deliberately absent: its edge sampler is
#: quadratic in the node count, which thousand-node benchmark inputs
#: cannot afford (and its density profile is not size-stable anyway).
SIZED_FAMILIES: tuple[str, ...] = ("layered", "ring", "chain", "fork-join")


def sample_sized_graph(
    family: str,
    size: int,
    *,
    seed: int = 0,
    max_time: int = 3,
    max_volume: int = 3,
) -> CSDFG:
    """Draw one paper-legal CSDFG with **exactly** ``size`` nodes.

    The benchmark's thousand-node inputs (``bench/inputs.py``) need
    instances whose node count is the independent variable, which
    :func:`sample_graph` cannot promise (its family parameters are
    sampled, so counts wobble).  Same determinism contract: one
    ``(family, size, seed)`` triple always builds the same graph,
    byte-stable across processes.
    """
    if family not in SIZED_FAMILIES:
        raise QAError(
            f"unknown sized family {family!r}; known: {list(SIZED_FAMILIES)}"
        )
    if size < 3:
        raise QAError(f"size must be >= 3, got {size}")
    rng = random.Random((seed, family, size).__repr__())
    name = f"{family.replace('-', '')}{size}-s{seed}"
    if family == "layered":
        widths: list[int] = []
        remaining = size
        while remaining > 0:
            width = min(remaining, rng.randint(2, 8))
            widths.append(width)
            remaining -= width
        graph = layered_csdfg(
            widths,
            seed=rng.randrange(1 << 30),
            fanout=2,
            feedback_edges=2,
            feedback_delay=2,
            max_time=max_time,
            max_volume=max_volume,
            name=name,
        )
    elif family == "ring":
        graph = ring_csdfg(
            size,
            delay_per_edge=1,
            time=rng.randint(1, max_time),
            volume=rng.randint(1, max_volume),
            name=name,
        )
    elif family == "chain":
        graph = chain_csdfg(
            size,
            time=rng.randint(1, max_time),
            volume=rng.randint(1, max_volume),
            loop_delay=2,
            name=name,
        )
    else:  # fork-join
        body = size - 2
        stages = 2 if body % 2 == 0 else 1
        graph = fork_join_csdfg(
            body // stages,
            stages=stages,
            time=rng.randint(1, max_time),
            volume=rng.randint(1, max_volume),
            loop_delay=2,
            name=name,
        )
    if graph.num_nodes != size:  # pragma: no cover - generator invariant
        raise QAError(
            f"sized generator built {graph.num_nodes} nodes for "
            f"requested {size} (generator bug)"
        )
    if not is_legal(graph):  # pragma: no cover - generator invariant
        raise QAError(
            f"sampled graph {graph.name!r} is illegal (generator bug)"
        )
    return graph


def sample_arch_spec(
    seed_or_rng: int | random.Random,
    *,
    max_pes: int = 8,
    degraded_prob: float = 0.0,
) -> ArchSpec:
    """Draw one architecture recipe across all registered kinds.

    ``degraded_prob`` layers a random single-PE failure (keeping the
    survivors connected) on top of the healthy instance with that
    probability.
    """
    rng = _rng(seed_or_rng)
    kind = rng.choice(sorted(ARCHITECTURE_KINDS))
    sizes = [n for n in _VALID_PE_COUNTS[kind] if n <= max_pes]
    if not sizes:
        # some kinds have a floor above max_pes (tori start at 3x3):
        # sample their smallest valid machine so every kind stays covered
        sizes = [min(_VALID_PE_COUNTS[kind])]
    num_pes = rng.choice(sizes)
    spec = ArchSpec(kind, num_pes)
    if num_pes > 2 and rng.random() < degraded_prob:
        # try a few candidate kills; keep the first that leaves the
        # survivors connected (DegradedTopology rejects the others)
        for _ in range(4):
            victim = rng.randrange(num_pes)
            try:
                candidate = replace(spec, failed_pes=(victim,))
                candidate.build()
                return candidate
            except Exception:
                continue
    return spec


def sample_config(
    seed_or_rng: int | random.Random, *, max_iterations: int = 6
) -> CycloConfig:
    """Draw optimiser options covering the modes the engines support.

    ``validate_each_step`` keeps its default (off) — the property suite
    runs the validator itself (per-step validation would hide ordering
    bugs the differential oracle is meant to catch, and doubles the
    cost of every trial).
    """
    rng = _rng(seed_or_rng)
    return CycloConfig(
        relaxation=rng.random() < 0.7,
        max_iterations=rng.randint(1, max_iterations),
        pipelined_pes=rng.random() < 0.25,
        remap_strategy=rng.choice(["implied", "implied", "first-fit"]),
    )
