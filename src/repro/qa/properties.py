"""The property/metamorphic suite run on every fuzz sample.

Each property is a function ``(graph, arch, config, rng) -> list[str]``
returning human-readable violation strings (empty list == the property
holds).  Properties hold for *every* legal input, not just the curated
workloads:

``schedules-legal``
    Every schedule the pipeline produces — start-up, compacted (fast
    and reference engines), ETF, sequential — passes the ground-truth
    validator.
``design-criterion``
    The DESIGN correctness criterion re-checked by the one independent
    oracle, :func:`~repro.analyze.schedule_cert.certify_schedule`:
    exclusive occupancy and, for every edge,
    ``CB(v) + d·L >= CE(u) + M + 1`` with ``M`` recomputed from
    ``arch.hops`` and the cost model (oracle diversity: a bug in the
    validator's walk cannot hide here).
``engines-equivalent``
    The differential oracle: the fast-path engine and the verbatim
    reference engine must agree on lengths, placements, accept/reject
    traces, stop reasons and retimings.
``relabel-invariance``
    Renaming nodes through a string-order-preserving bijection must not
    change the optimiser's behaviour: same lengths, placements mapped
    exactly.  (Tie-breaks may depend on label *order*, never on label
    *content*.)
``pe-permutation``
    Pushing a schedule through a distance-preserving PE permutation (an
    automorphism of the topology that also preserves execution speeds)
    keeps it legal at the same length.
``retiming-legality``
    The optimiser's cumulative retiming is legal, reproduces its
    retimed graph exactly, and preserves every cycle invariant
    (iteration bound); a freshly scheduled retimed graph validates.
``bounds``
    Analytic brackets: every produced length is at least the floor
    ``B`` (:func:`repro.core.bounds.length_lower_bound`, on every
    sample, pipelined and degraded ones too) and compaction never
    returns a best schedule longer than its start-up schedule; without
    relaxation, accepted pass lengths are monotone non-increasing
    (Theorem 4.4).  On tiny instances the exhaustive baseline
    (:func:`repro.baselines.exact.exact_minimum_length`) brackets the
    no-retiming schedulers from below.
``analyzer-agrees``
    The static analyzer (:mod:`repro.analyze`) agrees with the runtime:
    inputs it passes never yield a validator-illegal schedule (and its
    RA4xx certificate checker reaches the validator's verdict); inputs
    it rejects make the pipeline refuse with a typed error.
``contention-legal``
    The two-phase contention pipeline
    (:func:`repro.core.pipeline.contention_aware_schedule`) with a
    sampled contention model: the winner validates under the contended
    cache it carries, ``certify_schedule`` certifies it with ``M``
    re-derived independently from hops x cost model x the frozen
    occupancy's load along the route, and the contended bill never
    exceeds the contention-blind baseline's.
``sanitizer-agrees``
    The in-process face of the dynamic determinism sanitizer
    (``repro sanitize``, :mod:`repro.analyze.sanitize`): running the
    pipeline twice on the same inputs yields byte-identical canonical
    schedule fingerprints, and (on small instances) the best-of-N
    restart driver agrees with itself across repeated runs — the
    cross-process ``PYTHONHASHSEED``/``--jobs`` perturbation of the
    same contract lives in the CI sanitize smoke.
``startup-equivalent``
    The event-driven start-up scheduler
    (:func:`repro.core.startup.start_up_schedule`) and the per-step
    reference (:func:`repro.perf.reference.reference_start_up_schedule`)
    agree on length, placements and typed errors under a priority drawn
    from :mod:`repro.core.priority`, the sample's ``pipelined_pes`` and,
    half the time, a contended cache frozen from a plain start-up
    schedule.
``feasible-length-minimal``
    :func:`~repro.schedule.validate.minimum_feasible_length` meets its
    documented contract on the sample's start-up schedule and on seeded
    corruptions of it (a removed node, a foreign node, a task moved
    onto an occupied PE, a wrong duration, a failed PE, a zero-delay
    violation, a non-zero table origin, pipelined PEs): it returns the
    smallest ``L >= max(makespan, 1)`` that ``certify_schedule`` (not
    the walk ``minimum_feasible_length`` shares with the validator)
    certifies, found here by trying every length up to a bound past
    which no delayed edge can still constrain ``L``, and ``None`` when
    none works.
``faults-recover``
    Fault recovery (:func:`~repro.resilience.simfault.simulate_with_faults`,
    which repairs with the paper's communication-sensitive remapping)
    under a seeded campaign of PE and link faults, some transient,
    struck at the sample's start-up schedule: every run ends on a
    schedule the validator accepts on the surviving topology, or in a
    typed error (disconnected, infeasible, stalled).  The simulator's
    own validation (on entry and after every reconfiguration) raising
    is reported as the violations it names; any other exception
    escapes to the fuzzer, which counts it as a failure.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Callable

from repro.analyze.schedule_cert import certify_schedule
from repro.arch.comm import (
    ContentionModel,
    ScaledContention,
    SerializedContention,
)
from repro.arch.cache import CommCostCache
from repro.arch.contention import LinkOccupancy
from repro.arch.degraded import DegradedTopology
from repro.arch.routing import route as _route
from repro.arch.topology import Architecture
from repro.baselines.etf import etf_schedule
from repro.baselines.exact import exact_minimum_length
from repro.baselines.sequential import sequential_schedule
from repro.core.bounds import length_lower_bound
from repro.core.config import CycloConfig
from repro.core.cyclo import CycloResult, cyclo_compact
from repro.core.pipeline import contention_aware_schedule
from repro.core.priority import (
    fifo_priority,
    mobility_only_priority,
    paper_priority,
    volume_only_priority,
)
from repro.core.startup import start_up_schedule
from repro.errors import (
    ArchitectureError,
    DisconnectedTopologyError,
    InfeasibleScheduleError,
    QAError,
    ReproError,
    ScheduleValidationError,
    SchedulingError,
    StallDetectedError,
)
from repro.graph.csdfg import CSDFG
from repro.graph.properties import iteration_bound
from repro.perf.reference import (
    reference_cyclo_compact,
    reference_start_up_schedule,
)
from repro.resilience.faults import random_campaign
from repro.resilience.simfault import simulate_with_faults
from repro.retiming.basic import apply_retiming, is_legal_retiming
from repro.schedule.table import ScheduleTable
from repro.schedule.validate import collect_violations, minimum_feasible_length

__all__ = [
    "PROPERTIES",
    "PropertyFn",
    "check_property",
    "check_all",
    "architecture_automorphism",
]

PropertyFn = Callable[
    [CSDFG, Architecture, CycloConfig, random.Random], list[str]
]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _compact(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig
) -> CycloResult:
    return cyclo_compact(graph, arch, config=cfg)


def architecture_automorphism(
    arch: Architecture, rng: random.Random, *, attempts: int = 24
) -> list[int] | None:
    """A non-trivial distance- and speed-preserving PE permutation.

    Tries structured candidates (reversal, rotations) and random
    shuffles, returning the first permutation ``perm`` with
    ``hops(p, q) == hops(perm[p], perm[q])`` and equal time scales for
    every alive pair — or ``None`` when none is found (the identity is
    never returned: it would make the property vacuous).
    """
    n = arch.num_pes
    alive = [p for p in range(n) if arch.is_alive(p)]
    dist = arch.distance_matrix
    scales = arch.time_scales

    def valid(perm: list[int]) -> bool:
        for p in alive:
            if not arch.is_alive(perm[p]) or scales[p] != scales[perm[p]]:
                return False
        for p in alive:
            row = dist[p]
            prow = dist[perm[p]]
            for q in alive:
                if row[q] != prow[perm[q]]:
                    return False
        return True

    candidates: list[list[int]] = [list(reversed(range(n)))]
    for shift in (1, 2, n // 2):
        if 0 < shift < n:
            candidates.append([(p + shift) % n for p in range(n)])
    for _ in range(attempts):
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        candidates.append(shuffled)
    identity = list(range(n))
    for perm in candidates:
        if perm != identity and valid(perm):
            return perm
    return None


def _permuted(schedule: ScheduleTable, perm: list[int]) -> ScheduleTable:
    out = ScheduleTable(
        schedule.num_pes, name=f"{schedule.name}:permuted"
    )
    for p in schedule.placements():
        out.place(p.node, perm[p.pe], p.start, p.duration, p.occupancy)
    out.set_length(max(schedule.length, out.makespan))
    return out


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
def prop_schedules_legal(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    problems: list[str] = []
    result = _compact(graph, arch, cfg)

    def check(label: str, g: CSDFG, schedule: ScheduleTable, *, pipelined):
        for v in collect_violations(g, arch, schedule, pipelined_pes=pipelined):
            problems.append(f"{label}: {v}")

    check("startup", graph, result.initial_schedule, pipelined=cfg.pipelined_pes)
    check("compacted", result.graph, result.schedule, pipelined=cfg.pipelined_pes)
    check(
        "final-working",
        result.final_graph,
        result.final_schedule,
        pipelined=cfg.pipelined_pes,
    )
    if not arch.is_heterogeneous and all(arch.is_alive(p) for p in range(arch.num_pes)):
        check("etf", graph, etf_schedule(graph, arch), pipelined=False)
    check("sequential", graph, sequential_schedule(graph, arch), pipelined=False)
    return problems


def _certificate_errors(
    graph: CSDFG,
    arch: Architecture,
    schedule: ScheduleTable,
    pipelined: bool,
    price: Callable[[int, int, int], int] | None = None,
) -> list[str]:
    """The error findings of the independent oracle, as messages."""
    return [
        f"{d.code} {d.message}"
        for d in certify_schedule(
            graph, arch, schedule, pipelined_pes=pipelined, price=price
        )
        if d.severity == "error"
    ]


def prop_design_criterion(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    problems: list[str] = []
    result = _compact(graph, arch, cfg)
    for label, g, schedule in (
        ("startup", graph, result.initial_schedule),
        ("compacted", result.graph, result.schedule),
    ):
        for v in _certificate_errors(g, arch, schedule, cfg.pipelined_pes):
            problems.append(f"{label}: {v}")
    return problems


def prop_engines_equivalent(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    fast = cyclo_compact(graph, arch, config=cfg)
    ref = reference_cyclo_compact(graph, arch, config=cfg)
    problems: list[str] = []
    if fast.initial_length != ref.initial_length:
        problems.append(
            f"initial length: fast {fast.initial_length} != "
            f"reference {ref.initial_length}"
        )
    if fast.final_length != ref.final_length:
        problems.append(
            f"final length: fast {fast.final_length} != "
            f"reference {ref.final_length}"
        )
    if not fast.initial_schedule.same_placements(ref.initial_schedule):
        problems.append("initial placements differ between engines")
    if not fast.schedule.same_placements(ref.schedule):
        problems.append("compacted placements differ between engines")
    if fast.trace != ref.trace:
        problems.append("accept/reject traces differ between engines")
    if fast.stop_reason != ref.stop_reason:
        problems.append(
            f"stop reason: fast {fast.stop_reason!r} != "
            f"reference {ref.stop_reason!r}"
        )
    if fast.retiming != ref.retiming:
        problems.append("cumulative retimings differ between engines")
    return problems


def prop_relabel_invariance(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    # a string-order-preserving bijection: sorted old labels map to
    # fresh labels that sort the same way, so every str(v) tie-break
    # compares identically and only label *content* changes
    ordered = sorted(graph.nodes(), key=str)
    mapping = {old: f"q{i:04d}" for i, old in enumerate(ordered)}
    relabelled = graph.relabel(mapping, name=graph.name)

    base = _compact(graph, arch, cfg)
    other = _compact(relabelled, arch, cfg)
    problems: list[str] = []
    if (base.initial_length, base.final_length) != (
        other.initial_length,
        other.final_length,
    ):
        problems.append(
            f"lengths changed under relabelling: "
            f"{base.initial_length}->{base.final_length} vs "
            f"{other.initial_length}->{other.final_length}"
        )
        return problems
    for node in graph.nodes():
        p = base.schedule.placement(node)
        q = other.schedule.placement(mapping[node])
        if (p.pe, p.start, p.duration) != (q.pe, q.start, q.duration):
            problems.append(
                f"placement of {node!r} moved under relabelling: "
                f"(pe{p.pe + 1}, cs{p.start}) vs (pe{q.pe + 1}, cs{q.start})"
            )
    return problems


def prop_pe_permutation(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    perm = architecture_automorphism(arch, rng)
    if perm is None:
        return []  # no non-trivial automorphism found: vacuously holds
    result = _compact(graph, arch, cfg)
    problems: list[str] = []
    for label, g, schedule in (
        ("startup", graph, result.initial_schedule),
        ("compacted", result.graph, result.schedule),
    ):
        permuted = _permuted(schedule, perm)
        if permuted.length != schedule.length:
            problems.append(
                f"{label}: permuted length {permuted.length} != "
                f"{schedule.length}"
            )
        for v in collect_violations(
            g, arch, permuted, pipelined_pes=cfg.pipelined_pes
        ):
            problems.append(f"{label} under PE permutation {perm}: {v}")
    return problems


def prop_retiming_legality(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    result = _compact(graph, arch, cfg)
    problems: list[str] = []
    if not is_legal_retiming(graph, result.retiming):
        problems.append("optimiser returned an illegal cumulative retiming")
        return problems
    retimed = apply_retiming(graph, result.retiming)
    if not retimed.structurally_equal(result.graph):
        problems.append(
            "result.graph != apply_retiming(input, result.retiming)"
        )
    if iteration_bound(retimed) != iteration_bound(graph):
        problems.append(
            f"retiming changed the iteration bound: "
            f"{iteration_bound(graph)} -> {iteration_bound(retimed)}"
        )
    # a legally retimed graph must still schedule to a legal table
    fresh = _compact(retimed, arch, cfg)
    for v in collect_violations(
        fresh.graph, arch, fresh.schedule, pipelined_pes=cfg.pipelined_pes
    ):
        problems.append(f"schedule of retimed graph: {v}")
    return problems


def prop_bounds(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    problems: list[str] = []
    result = _compact(graph, arch, cfg)
    floor = length_lower_bound(graph, arch, cfg)
    if result.final_length < floor:
        problems.append(
            f"final length {result.final_length} beats the length floor "
            f"B = {floor}"
        )
    if result.final_length > result.initial_length:
        problems.append(
            f"best schedule ({result.final_length}) is longer than the "
            f"start-up schedule ({result.initial_length})"
        )
    if not cfg.relaxation:
        lengths = [
            r.length_after for r in result.trace.records if r.accepted
        ]
        previous = result.initial_length
        for length in lengths:
            if length > previous:
                problems.append(
                    "Theorem 4.4 violated: accepted pass grew the "
                    f"schedule {previous} -> {length} without relaxation"
                )
                break
            previous = length
    problems.extend(_exact_bracket(graph, arch, cfg, result))
    return problems


def _exact_bracket(
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    result: CycloResult,
) -> list[str]:
    """Exhaustive-search bracket, only where it is tractable."""
    if (
        graph.num_nodes > 5
        or arch.num_pes > 4
        or cfg.pipelined_pes
        or arch.is_heterogeneous
        or graph.total_work() > 12
        or any(not arch.is_alive(p) for p in range(arch.num_pes))
    ):
        return []
    try:
        optimum, _ = exact_minimum_length(graph, arch, node_budget=200_000)
    except SchedulingError:
        return []  # search budget exhausted: no verdict
    problems = []
    if result.initial_length < optimum:
        problems.append(
            f"start-up length {result.initial_length} beats the exact "
            f"no-retiming minimum {optimum}"
        )
    etf_len = etf_schedule(graph, arch).length
    if etf_len < optimum:
        problems.append(
            f"ETF length {etf_len} beats the exact no-retiming "
            f"minimum {optimum}"
        )
    if Fraction(optimum) < iteration_bound(graph):
        problems.append(
            f"exact minimum {optimum} beats the iteration bound "
            f"{iteration_bound(graph)}"
        )
    return problems


def prop_analyzer_agrees(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    """The static analyzer and the runtime pipeline must agree.

    Analyzer-pass: the pipeline may refuse with a typed
    :class:`~repro.errors.ReproError`, but any schedule it *does*
    produce must be validator-legal, and the RA4xx certificate checker
    must reach the validator's verdict on it.  Analyzer-error: the
    pipeline must refuse, and with a typed error.
    """
    from repro.analyze import analyze_inputs
    from repro.errors import ReproError

    report = analyze_inputs(graph, arch, config=cfg)
    if not report.ok:
        codes = ",".join(d.code for d in report.errors)
        try:
            _compact(graph, arch, cfg)
        except ReproError:
            return []
        except Exception as exc:
            return [
                f"analyzer rejected inputs ({codes}) but scheduling "
                f"raised untyped {type(exc).__name__}: {exc}"
            ]
        return [
            f"analyzer rejected inputs ({codes}) but scheduling succeeded"
        ]

    try:
        result = _compact(graph, arch, cfg)
    except ReproError:
        return []  # a typed refusal (budgets, recovery) is allowed
    except Exception as exc:
        return [
            f"analyzer passed inputs but scheduling raised untyped "
            f"{type(exc).__name__}: {exc}"
        ]
    problems: list[str] = []
    for label, g, schedule in (
        ("startup", graph, result.initial_schedule),
        ("compacted", result.graph, result.schedule),
    ):
        validator = collect_violations(
            g, arch, schedule, pipelined_pes=cfg.pipelined_pes
        )
        certificate = [
            d for d in certify_schedule(
                g, arch, schedule, pipelined_pes=cfg.pipelined_pes
            )
            if d.severity == "error"
        ]
        if validator:
            problems.append(
                f"{label}: analyzer passed inputs but the pipeline "
                f"produced a validator-illegal schedule: {validator[0]}"
            )
        if bool(validator) != bool(certificate):
            certs = ",".join(d.code for d in certificate) or "clean"
            problems.append(
                f"{label}: certificate checker ({certs}) and validator "
                f"({len(validator)} violation(s)) disagree"
            )
    return problems


def _route_load_price(
    arch: Architecture, model: ContentionModel, occupancy: LinkOccupancy
) -> Callable[[int, int, int], int]:
    """Contended ``M``, re-derived independently of the cache:
    ``model.price(base, load)`` with ``base`` straight from
    ``arch.hops`` x the cost model and ``load`` the heaviest per-link
    ledger entry of the frozen occupancy along the deterministic
    route."""
    loads = occupancy.loads

    def price(pe_u: int, pe_v: int, volume: int) -> int:
        base = arch.comm_model.cost(arch.hops(pe_u, pe_v), volume)  # repro-lint: disable=RL103 (independent oracle)
        if base == 0:
            return 0
        path = _route(arch, pe_u, pe_v)
        load = max(
            (
                loads.get((min(a, b), max(a, b)), 0)
                for a, b in zip(path, path[1:])
            ),
            default=0,
        )
        return model.price(base, load)

    return price


def prop_contention_legal(
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    rng: random.Random,
) -> list[str]:
    """Contention-aware scheduling stays legal and never loses to the
    contention-blind baseline on its own metric."""
    model = _contention_model(rng)
    contended = dataclasses.replace(
        cfg,
        contention_model=model.name,
        contention_weight=model.weight,
        contention_rounds=1,
    )
    result = contention_aware_schedule(graph, arch, config=contended)
    problems: list[str] = []

    # the winner must validate under exactly the pricing it carries
    for violation in collect_violations(
        result.graph,
        arch,
        result.schedule,
        pipelined_pes=cfg.pipelined_pes,
        comm=result.comm,
    ):
        problems.append(f"[{model.name}] contended validator: {violation}")

    # the oracle, with M re-derived independently of the cache (plain
    # prices when the blind baseline won)
    occupancy = result.comm.occupancy if result.comm is not None else None
    price = (
        None if occupancy is None
        else _route_load_price(arch, model, occupancy)
    )
    for violation in _certificate_errors(
        result.graph, arch, result.schedule, cfg.pipelined_pes, price
    ):
        problems.append(f"[{model.name}] certificate: {violation}")

    # the baseline competes, so the winner can never bill higher
    if result.final_cost > result.blind_cost:
        problems.append(
            f"[{model.name}] contended bill regressed: aware winner costs "
            f"{result.final_cost}, blind baseline {result.blind_cost}"
        )
    return problems


_STARTUP_PRIORITIES = {
    "paper": paper_priority,
    "mobility-only": mobility_only_priority,
    "fifo": fifo_priority,
    "volume-only": volume_only_priority,
}


def _contention_model(rng: random.Random) -> ContentionModel:
    if rng.random() < 0.7:
        return SerializedContention(weight=1 + rng.randrange(3))
    return ScaledContention(weight=1 + rng.randrange(8))


def prop_startup_equivalent(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    """The event-driven start-up scheduler places exactly what the
    per-step reference places, under a drawn priority and, half the
    time, surcharged prices."""
    name = rng.choice(sorted(_STARTUP_PRIORITIES))
    kwargs = {
        "priority": _STARTUP_PRIORITIES[name],
        "pipelined_pes": cfg.pipelined_pes,
        "comm": CommCostCache.for_graph(arch, graph),
    }
    prices = "plain"
    if rng.random() < 0.5:
        model = _contention_model(rng)
        try:
            seed = start_up_schedule(graph, arch, comm=kwargs["comm"])
        except ReproError:
            pass  # both engines meet the same error under plain prices
        else:
            occupancy = LinkOccupancy.from_assignment(
                graph, arch, seed.processor_map()
            )
            kwargs["comm"] = CommCostCache.for_graph(
                arch, graph, contention=model, occupancy=occupancy
            )
            prices = model.name
    outcomes = []
    for schedule in (start_up_schedule, reference_start_up_schedule):
        try:
            outcomes.append((schedule(graph, arch, **kwargs), None))
        except ReproError as exc:
            outcomes.append((None, exc))
    (fast, fast_err), (ref, ref_err) = outcomes
    label = f"{name} priority, {prices} prices"
    if fast_err is not None or ref_err is not None:
        if type(fast_err) is not type(ref_err) or str(fast_err) != str(ref_err):
            return [f"{label}: errors differ: fast {fast_err!r}, "
                    f"reference {ref_err!r}"]
        return []
    problems: list[str] = []
    if fast.length != ref.length:
        problems.append(
            f"{label}: length fast {fast.length} != reference {ref.length}"
        )
    if not fast.same_placements(ref):
        problems.append(f"{label}: placements differ between engines")
    return problems


def prop_sanitizer_agrees(
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    rng: random.Random,
) -> list[str]:
    """Double-run determinism, in process: same inputs, byte-identical
    canonical fingerprints (the ``repro sanitize`` contract)."""
    from repro.analyze.sanitize import schedule_fingerprint

    problems: list[str] = []
    first = cyclo_compact(graph, arch, config=cfg)
    second = cyclo_compact(graph, arch, config=cfg)
    fp_a = schedule_fingerprint(first.schedule)
    fp_b = schedule_fingerprint(second.schedule)
    if fp_a != fp_b:
        problems.append(
            f"cyclo_compact is not deterministic: {fp_a!r} != {fp_b!r}"
        )
    # the best-of-N restart driver must agree with itself too; gate to
    # small instances so a fuzz trial stays cheap
    if graph.num_nodes <= 8:
        from repro.perf.restarts import best_of_restarts

        seed = rng.randrange(2**31)
        runs = [
            best_of_restarts(
                graph, arch, config=cfg, restarts=2, seed=seed, jobs=1
            )
            for _ in range(2)
        ]
        fps = [schedule_fingerprint(r.schedule) for r in runs]
        if fps[0] != fps[1]:
            problems.append(
                f"best_of_restarts(seed={seed}) is not deterministic: "
                f"{fps[0]!r} != {fps[1]!r}"
            )
        if runs[0].winner.index != runs[1].winner.index:
            problems.append(
                f"best_of_restarts(seed={seed}) winner drifted: "
                f"{runs[0].winner.index} != {runs[1].winner.index}"
            )
    return problems


def _smallest_legal_length(
    graph: CSDFG, arch: Architecture, schedule: ScheduleTable, pipelined: bool
) -> int | None:
    """The contract of ``minimum_feasible_length``, by search with the
    independent oracle.

    Tries every ``L`` from ``max(makespan, 1)`` upwards, like the
    start-up scheduler's ``cs_limit``.  From ``makespan + M_max`` on
    (``M_max``: the dearest price of any edge volume between two alive
    PEs) every delayed edge holds, since
    ``CB(v) + d·L >= 1 + L >= CE(u) + M + 1``, so a length that still
    fails there fails for a length-independent reason and the search
    stops.
    """
    alive = list(arch.processors)
    volumes = {e.volume for e in graph.edges()}
    m_max = max(
        (
            arch.comm_cost(p, q, vol)
            for vol in volumes for p in alive for q in alive
        ),
        default=0,
    )
    low = max(schedule.makespan, 1)
    probe = schedule.copy()
    for length in range(low, low + m_max + 1):
        probe.set_length(length)
        if not _certificate_errors(graph, arch, probe, pipelined):
            return length
    return None


def _occupied_move(
    schedule: ScheduleTable, rng: random.Random
) -> ScheduleTable | None:
    """``schedule`` rebuilt issue-only (occupancy 1, as on pipelined
    PEs) with one task moved so that its execution overlaps another
    task on that PE; ``None`` when no such move exists (a table cannot
    hold two tasks in one cell, so at least one of the pair must last
    more than one step)."""
    issue_only = ScheduleTable(
        schedule.num_pes, name=f"{schedule.name}:occupied"
    )
    placed = list(schedule.placements())
    for p in placed:
        issue_only.place(p.node, p.pe, p.start, p.duration, 1)
    rng.shuffle(placed)
    for v in placed:
        for w in placed:
            if w.node == v.node:
                continue
            window = range(max(1, w.start - v.duration + 1), w.finish + 1)
            for start in window:
                if start != v.start and issue_only.is_free(w.pe, start, 1):
                    out = issue_only.copy()
                    out.remove(v.node)
                    out.place(v.node, w.pe, start, v.duration, 1)
                    return out
    return None


def _feasible_length_cases(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
):
    """``(label, arch, schedule, pipelined, cache)`` probes for
    ``feasible-length-minimal``: the unpadded start-up schedule and its
    seeded corruptions (a corruption the sample cannot host is
    skipped), each with a price cache of its machine."""
    pipelined = cfg.pipelined_pes
    cache = CommCostCache.for_graph(arch, graph)
    base = start_up_schedule(
        graph, arch, pad_for_delayed_edges=False, pipelined_pes=pipelined
    )
    nodes = list(base.nodes())
    yield "startup", arch, base, pipelined, cache
    yield "pipelined", arch, base, not pipelined, cache

    removed = base.copy()
    removed.remove(rng.choice(nodes))
    yield "removed-node", arch, removed, pipelined, cache

    foreign = base.copy()
    foreign.place(
        ("foreign", graph.name),
        rng.choice(list(arch.processors)),
        base.makespan + 1,
        1,
    )
    yield "foreign-node", arch, foreign, pipelined, cache

    occupied = _occupied_move(base, rng)
    if occupied is not None:
        yield "occupied-pe", arch, occupied, False, cache

    wrong = base.copy()
    victim = wrong.remove(rng.choice(nodes))
    wrong.place(
        victim.node, victim.pe, base.makespan + 1, victim.duration + 1
    )
    yield "wrong-duration", arch, wrong, pipelined, cache

    alive = list(arch.processors)
    if len(alive) > 1:
        dead = base.processor(rng.choice(nodes))
        try:
            degraded = DegradedTopology(arch, failed_pes=(dead,))
        except ArchitectureError:
            pass  # the survivors would be cut apart
        else:
            yield "failed-pe", degraded, base, pipelined, (
                CommCostCache.for_graph(degraded, graph)
            )

    zero = [e for e in graph.edges() if e.delay == 0]
    if zero:
        edge = rng.choice(zero)
        early = base.copy()
        moved = early.remove(edge.dst)
        finish_u = early.finish(edge.src)
        spots = [
            (pe, start)
            for pe in alive
            for start in range(1, finish_u + 1)
            if early.is_free(pe, start, moved.duration)
        ]
        if spots:
            pe, start = rng.choice(spots)
            early.place(edge.dst, pe, start, moved.duration, moved.occupancy)
            yield "zero-delay-violation", arch, early, pipelined, cache

    # a task moved into the rows a shift emptied is stored before the
    # origin (stored start < 1), as after a rotation
    shifted = base.copy()
    shifted.shift_all(rng.randint(1, 3))
    moved = shifted.remove(rng.choice(nodes))
    start = 1 if shifted.is_free(moved.pe, 1, moved.occupancy) else moved.start
    shifted.place(moved.node, moved.pe, start, moved.duration, moved.occupancy)
    yield "table-origin", arch, shifted, pipelined, cache


def prop_feasible_length_minimal(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    """``minimum_feasible_length`` equals the smallest legal length
    found by search, on start-up schedules and seeded corruptions."""
    problems: list[str] = []
    for label, machine, schedule, pipelined, cache in _feasible_length_cases(
        graph, arch, cfg, rng
    ):
        want = _smallest_legal_length(graph, machine, schedule, pipelined)
        for comm in (None, cache):
            got = minimum_feasible_length(
                graph, machine, schedule, pipelined_pes=pipelined, comm=comm
            )
            if got != want:
                problems.append(
                    f"{label} (pipelined={pipelined}, "
                    f"{'cached' if comm else 'uncached'} prices): "
                    f"minimum_feasible_length {got} != smallest legal "
                    f"length {want}"
                )
    return problems


#: Loop iterations each faulted run executes, the most faults one
#: campaign strikes, and the share of them that heal again.
_FAULT_ITERATIONS = 4
_MAX_FAULTS = 3
_TRANSIENT_FRACTION = 0.25


def prop_faults_recover(
    graph: CSDFG, arch: Architecture, cfg: CycloConfig, rng: random.Random
) -> list[str]:
    """A seeded fault campaign against the start-up schedule ends on a
    validator-legal schedule of the surviving machine or in a typed
    error."""
    schedule = start_up_schedule(
        graph, arch, pipelined_pes=cfg.pipelined_pes
    )
    campaign = random_campaign(
        arch,
        seed=rng.randrange(2**31),
        num_faults=rng.randint(1, _MAX_FAULTS),
        # faults strike before the last iteration starts
        horizon=max(1, (_FAULT_ITERATIONS - 1) * schedule.length),
        link_fraction=0.5,
        transient_fraction=_TRANSIENT_FRACTION,
    )
    try:
        run = simulate_with_faults(
            graph,
            arch,
            schedule,
            _FAULT_ITERATIONS,
            campaign,
            pipelined_pes=cfg.pipelined_pes,
        )
    except (
        DisconnectedTopologyError,
        InfeasibleScheduleError,
        StallDetectedError,
    ):
        return []
    except ScheduleValidationError as exc:
        # an illegal table on entry or out of a repair is a defect
        return [f"{campaign.name}: {v}" for v in exc.violations]
    # re-validated here, independently of the simulator's own checks
    return [
        f"{campaign.name}: {violation}"
        for violation in collect_violations(
            run.final_graph,
            run.final_topology,
            run.final_schedule,
            pipelined_pes=cfg.pipelined_pes,
        )
    ]


#: Registry of every property, in the order the fuzzer runs them.
PROPERTIES: dict[str, PropertyFn] = {
    "schedules-legal": prop_schedules_legal,
    "design-criterion": prop_design_criterion,
    "engines-equivalent": prop_engines_equivalent,
    "relabel-invariance": prop_relabel_invariance,
    "pe-permutation": prop_pe_permutation,
    "retiming-legality": prop_retiming_legality,
    "bounds": prop_bounds,
    "analyzer-agrees": prop_analyzer_agrees,
    "contention-legal": prop_contention_legal,
    "sanitizer-agrees": prop_sanitizer_agrees,
    "feasible-length-minimal": prop_feasible_length_minimal,
    "startup-equivalent": prop_startup_equivalent,
    "faults-recover": prop_faults_recover,
}


def check_property(
    name: str,
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    rng: random.Random | int = 0,
) -> list[str]:
    """Run one named property; violation strings are prefixed with it."""
    try:
        prop = PROPERTIES[name]
    except KeyError:
        raise QAError(
            f"unknown property {name!r}; known: {list(PROPERTIES)}"
        ) from None
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return [f"[{name}] {v}" for v in prop(graph, arch, cfg, rng)]


def check_all(
    graph: CSDFG,
    arch: Architecture,
    cfg: CycloConfig,
    rng: random.Random | int = 0,
    *,
    properties: tuple[str, ...] | None = None,
) -> list[str]:
    """Run every property (or ``properties``) on one sample."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    names = properties if properties is not None else tuple(PROPERTIES)
    violations: list[str] = []
    for name in names:
        violations.extend(check_property(name, graph, arch, cfg, rng))
    return violations
