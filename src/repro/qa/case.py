"""Replayable reproducer cases: one failing (graph, arch, config) triple.

A :class:`ReproCase` pins everything a property run needs — the graph
(canonical CSDFG JSON), the architecture recipe (:class:`ArchSpec`),
the optimiser config, the property name and the derived-randomness
seed — so a failure found by the fuzzer on one machine replays
byte-identically on another.  Shrunk cases are checked into
``tests/corpus/`` and re-run by tier-1 forever (fixed bugs stay fixed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.config import CycloConfig
from repro.errors import QAError, SchedulingError
from repro.graph import io as graph_io
from repro.graph.csdfg import CSDFG
from repro.qa.generate import ArchSpec
from repro.qa.properties import PROPERTIES, check_property

__all__ = ["ReproCase", "replay_case", "load_cases"]

_FORMAT = "repro-qa-case"
_VERSION = 1


@dataclass(frozen=True)
class ReproCase:
    """A serialized property failure (or any replayable triple)."""

    graph: CSDFG
    arch_spec: ArchSpec
    config: CycloConfig
    prop: str
    seed: int = 0
    note: str = ""

    def __post_init__(self) -> None:
        if self.prop not in PROPERTIES:
            raise QAError(
                f"unknown property {self.prop!r}; known: {list(PROPERTIES)}"
            )

    # ------------------------------------------------------------------
    def run(self) -> list[str]:
        """Re-run the pinned property; empty list == the invariant holds."""
        return check_property(
            self.prop,
            self.graph.copy(),
            self.arch_spec.build(),
            self.config,
            random.Random(self.seed),
        )

    def with_graph(self, graph: CSDFG) -> "ReproCase":
        return replace(self, graph=graph)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "property": self.prop,
            "seed": self.seed,
            "note": self.note,
            "graph": graph_io.to_json(self.graph),
            "arch": self.arch_spec.to_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReproCase":
        if data.get("format") != _FORMAT:
            raise QAError("not a repro-qa-case payload")
        if data.get("version") != _VERSION:
            raise QAError(
                f"unsupported qa case version {data.get('version')!r}"
            )
        try:
            return cls(
                graph=graph_io.from_json(data["graph"]),
                arch_spec=ArchSpec.from_dict(data["arch"]),
                config=CycloConfig.from_dict(data["config"]),
                prop=data["property"],
                seed=int(data.get("seed", 0)),
                note=str(data.get("note", "")),
            )
        except (KeyError, TypeError, SchedulingError) as exc:
            raise QAError(f"malformed qa case: {exc}") from exc

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ReproCase":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise QAError(f"qa case is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReproCase":
        return cls.from_json(Path(path).read_text())

    def describe(self) -> str:
        spec = self.arch_spec
        degraded = (
            f" (failed pes {list(spec.failed_pes)}, "
            f"links {list(spec.failed_links)})"
            if spec.failed_pes or spec.failed_links
            else ""
        )
        return (
            f"[{self.prop}] {self.graph.name}: {self.graph.num_nodes} "
            f"node(s), {self.graph.num_edges} edge(s) on {spec.kind} "
            f"x{spec.num_pes}{degraded}, seed {self.seed}"
            + (f" — {self.note}" if self.note else "")
        )


def replay_case(case: ReproCase) -> list[str]:
    """Run ``case``, turning unexpected exceptions into violations.

    The shrinker and the corpus replay both need "the property raised"
    to count as a reproduced failure rather than aborting the search.
    """
    try:
        return case.run()
    except Exception as exc:  # noqa: BLE001 - any escape is a failure
        return [f"[{case.prop}] raised {type(exc).__name__}: {exc}"]


def load_cases(directory: str | Path) -> list[tuple[Path, ReproCase]]:
    """Every ``*.json`` qa case under ``directory``, sorted by name."""
    root = Path(directory)
    if not root.exists():
        return []
    out = []
    for path in sorted(root.glob("*.json")):
        out.append((path, ReproCase.load(path)))
    return out
