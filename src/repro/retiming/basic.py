"""Retiming fundamentals (Leiserson & Saxe, Algorithmica 1991).

A retiming is a function ``r: V -> Z``; retiming a CSDFG rewrites each
edge ``u -> v`` to carry ``d_r(e) = d(e) + r(u) - r(v)`` delays.

Sign convention: this library uses the ICPP'95 paper's convention —
``r(v)`` counts how many delays are *drawn from every incoming edge* of
``v`` and *pushed onto every outgoing edge* (§2: Figure 1(b) to 1(c) is
``r(A) = 1``).  This is the negative of Leiserson & Saxe's convention;
:mod:`repro.retiming.leiserson_saxe` converts at its boundary.

A retiming is *legal* when every retimed delay stays non-negative;
legality plus unchanged cycle delays are the invariants the property
tests check.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import RetimingError
from repro.graph.csdfg import CSDFG, Node

__all__ = [
    "retimed_delay",
    "is_legal_retiming",
    "apply_retiming",
    "normalize_retiming",
    "compose_retimings",
    "zero_retiming",
]


def zero_retiming(graph: CSDFG) -> dict[Node, int]:
    """The identity retiming of ``graph``."""
    return {v: 0 for v in graph.nodes()}


def retimed_delay(graph: CSDFG, retiming: Mapping[Node, int], src: Node, dst: Node) -> int:
    """``d_r(src -> dst) = d + r(src) - r(dst)`` (paper convention)."""
    return (
        graph.delay(src, dst)
        + retiming.get(src, 0)
        - retiming.get(dst, 0)
    )


def is_legal_retiming(graph: CSDFG, retiming: Mapping[Node, int]) -> bool:
    """True when every retimed edge delay is non-negative."""
    return all(
        e.delay + retiming.get(e.src, 0) - retiming.get(e.dst, 0) >= 0
        for e in graph.edges()
    )


def apply_retiming(
    graph: CSDFG, retiming: Mapping[Node, int], name: str | None = None
) -> CSDFG:
    """Return the retimed graph ``G_r``.

    Raises :class:`IllegalRetimingError` when some delay would become
    negative; raises :class:`RetimingError` when ``retiming`` mentions
    unknown nodes (catching mismatched graph/retiming pairs early).
    """
    unknown = [v for v in retiming if v not in graph]
    if unknown:
        raise RetimingError(f"retiming mentions unknown nodes: {unknown!r}")
    # one walk: edges whose delay does not change are shared with graph
    return graph._clone(
        name if name is not None else f"{graph.name}:retimed", retiming
    )


def normalize_retiming(retiming: Mapping[Node, int]) -> dict[Node, int]:
    """Shift ``r`` so its minimum is 0 (retimings are equivalent up to a
    constant offset on weakly connected graphs)."""
    if not retiming:
        return {}
    low = min(retiming.values())
    return {v: r - low for v, r in retiming.items()}


def compose_retimings(
    first: Mapping[Node, int], second: Mapping[Node, int]
) -> dict[Node, int]:
    """The retiming equivalent to applying ``first`` then ``second``.

    Retimings compose additively: ``d_{r1+r2} = (d_{r1})_{r2}``.
    """
    keys = set(first) | set(second)
    return {v: first.get(v, 0) + second.get(v, 0) for v in keys}
