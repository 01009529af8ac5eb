"""Compare two sets of benchmark runs: parent (A) against change (B).

Usage::

    python3 bench/run.py --workload paper19 --seed 11 --record A.jsonl  # parent, repeated
    python3 bench/run.py --workload paper19 --seed 11 --record B.jsonl  # change, repeated
    python3 bench/compare.py A.jsonl B.jsonl

For every end-to-end metric and workload it prints one verdict, using
the bound and direction from ``BENCHMARK.json``:

* ``worse``      — the change's median is worse than the parent's by
  more than the bound;
* ``better``     — the change wins at least 9 of 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` — the run-to-run spread (interquartile range over
  median, either side) is wider than the bound, so neither of the
  above can be told from noise;
* ``unchanged``  — otherwise.

Runs are paired by seed (in file order within a seed).  The
deterministic facts of each run (schedule digest, lengths, contended
bill, per-layer counts) must be identical between runs of one seed on
an engine that returns the same schedules; every difference is listed.
Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _timed(name: str, unit: str) -> bool:
    """Whether a per-layer metric is measured with a clock (times and
    shares of time); the others are exact counts."""
    return unit == "s" or name.endswith("share") or name == "trace.overhead"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spread(values: list[float]) -> tuple[float, float]:
    """(interquartile range, median); zero range below two values."""
    median = statistics.median(values)
    if len(values) < 2:
        return 0.0, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, median


def _pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    by_seed: dict[int, list[dict]] = {}
    for rec in b:
        by_seed.setdefault(rec["seed"], []).append(rec)
    pairs = []
    for rec in a:
        partners = by_seed.get(rec["seed"])
        if partners:
            pairs.append((rec, partners.pop(0)))
    return pairs


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            bound: float, higher: bool) -> tuple[str, float, float, int]:
    """``(verdict, relative change, wider relative spread, pairs won)``."""
    iqr_a, med_a = _spread(a)
    iqr_b, med_b = _spread(b)
    sign = 1 if higher else -1
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = -sign * change
    spread = max(iqr_a / med_a if med_a else 0.0, iqr_b / med_b if med_b else 0.0)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = (
        pairs and wins >= 0.9 * len(pairs)
        and sign * (med_b - med_a) > iqr_a
    )
    if spread > bound:
        every_better = all(sign * (y - x) > 0 for x in a for y in b)
        result = "better" if every_better and gain else "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "better" if gain else "unchanged"
    return result, change, spread, wins


def exact_facts(rec: dict, per_layer_units: dict) -> dict:
    facts = dict(rec.get("quality", {}))
    for name, metric in rec["metrics"].items():
        unit = per_layer_units.get(name)
        if unit is not None and not _timed(name, unit):
            facts[name] = metric["value"]
    return facts


def differences(pairs: list[tuple[dict, dict]], per_layer_units: dict):
    """``(seed, fact)`` for every deterministic fact a pair disagrees on."""
    out = []
    for x, y in pairs:
        fx = exact_facts(x, per_layer_units)
        fy = exact_facts(y, per_layer_units)
        out.extend(
            (x["seed"], key) for key in sorted(fx.keys() | fy.keys())
            if fx.get(key) != fy.get(key)
        )
    return out


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> int:
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    worse = 0
    print(f"{'workload':<14}{'metric':<18}{'parent':>14}{'change':>14}"
          f"{'delta':>9}{'spread':>9}{'won':>7}  verdict")
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        for trace in (0, 1):
            a = [r for r in a_runs if r["workload"] == workload and r["trace"] == trace]
            b = [r for r in b_runs if r["workload"] == workload and r["trace"] == trace]
            if not a or not b:
                continue
            pairs = _pairs(a, b)
            if trace == 0:
                for name, m in e2e.items():
                    av = [r["metrics"][name]["value"] for r in a]
                    bv = [r["metrics"][name]["value"] for r in b]
                    pv = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                          for x, y in pairs]
                    result, change, spread, wins = verdict(
                        av, bv, pv, m["bound"], m["better"] == "higher")
                    worse += result == "worse"
                    print(f"{workload:<14}{name:<18}{statistics.median(av):>14.6g}"
                          f"{statistics.median(bv):>14.6g}{change:>+9.1%}"
                          f"{spread:>9.1%}{f'{wins}/{len(pv)}':>7}  {result}")
            differing = differences(pairs, per_layer_units)
            kind = "traced counts" if trace else "outputs"
            if differing:
                for seed, key in differing:
                    print(f"{workload:<14}seed {seed}: {key} differs")
            else:
                print(f"{workload:<14}{kind} identical on {len(pairs)} paired runs")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
