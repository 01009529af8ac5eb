"""The start-up priority function PF (Definition 3.6).

``PF(v) = max_i { m_i - (cs_cur - (CE(u_i) + 1)) - MB(v) }`` over the
already-scheduled zero-delay predecessors ``u_i`` of ``v`` with edge
data volumes ``m_i``:

* a large pending data volume raises priority (get the receiver placed
  before its data goes stale / the producer's processor fills up),
* ``cs_cur - (CE(u_i) + 1)`` is how long ``v`` has already been
  deferred past its producer — the volume's influence decays with it,
* mobility is subtracted: nodes that *can* wait, wait.

Root nodes (no zero-delay predecessor) score ``-MB(v)``, i.e. pure
inverse mobility.  Alternative priorities used by the ablation bench
(:mod:`repro.analysis.ablation`) are defined alongside.

Every priority is *affine in the control step*.  It is evaluated once,
when ``v`` becomes ready (all zero-delay producers placed), and returns
a key ``(a, b)`` whose score at control step ``cs`` is ``a + b * cs``
(higher first).  For the PF the control step cancels: with
``MB(v) = ALAP(v) - cs_cur`` the score is
``max_i(m_i + CE(u_i) + 1) - ALAP(v)``, so ``b = 0``; root nodes score
``cs_cur - ALAP(v)``, so ``b = 1``.  This is what lets
:func:`repro.core.startup.start_up_schedule` keep the ready list in
heaps instead of re-sorting it at every control step.

A priority sees only what the PF reads: the node, its ALAP step and
the ``(CE(u_i), m_i)`` pairs of its zero-delay producers.  The caller
derives those from its own data — start-up from its index lists, the
per-step reference (:mod:`repro.perf.reference`) from ``in_edges`` and
its finish map — so neither shares the other's derivation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from repro.graph.csdfg import Node

__all__ = [
    "paper_priority",
    "mobility_only_priority",
    "fifo_priority",
    "volume_only_priority",
    "PriorityFn",
    "PriorityKey",
]

#: ``(a, b)``: the score at control step ``cs`` is ``a + b * cs``.
PriorityKey = tuple[float, int]

#: Signature shared by all start-up priority functions:
#: ``(node, alap, inputs) -> (a, b)``, called once when ``node`` becomes
#: ready.  ``alap`` is the node's ALAP step and ``inputs`` holds one
#: ``(finish, volume)`` pair per zero-delay producer: the producer's
#: last execution step ``CE(u)`` and the edge's data volume.  ``b``
#: must be an integer and ``a`` exact in binary floating point
#: (integers, or integers plus a fraction of few bits), so scores
#: compare exactly at every control step.
PriorityFn = Callable[[Node, int, Sequence[tuple[int, int]]], PriorityKey]


def paper_priority(
    node: Node, alap: int, inputs: Sequence[tuple[int, int]]
) -> PriorityKey:
    """The paper's PF (Definition 3.6)."""
    best: int | None = None
    for finish, volume in inputs:
        # m_i - (cs - (CE(u_i) + 1)) - (ALAP(v) - cs): cs cancels
        score = volume + finish + 1
        if best is None or score > best:
            best = score
    if best is None:
        return float(-alap), 1
    return float(best - alap), 0


def mobility_only_priority(
    node: Node, alap: int, inputs: Sequence[tuple[int, int]]
) -> PriorityKey:
    """Classic list scheduling: least mobility first (ablation)."""
    return float(-alap), 1


def fifo_priority(
    node: Node, alap: int, inputs: Sequence[tuple[int, int]]
) -> PriorityKey:
    """No prioritisation at all — ready order (ablation strawman)."""
    return 0.0, 0


def volume_only_priority(
    node: Node, alap: int, inputs: Sequence[tuple[int, int]]
) -> PriorityKey:
    """Largest pending inbound data volume first (ablation)."""
    return float(max(map(itemgetter(1), inputs), default=0)), 0
