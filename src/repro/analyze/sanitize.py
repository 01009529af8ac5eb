"""The dynamic determinism sanitizer (``repro sanitize``).

The source analyzer (``repro lint``) proves the determinism properties
it can see syntactically (RL101, RD102, RD103); this module is the
runtime backstop for everything it cannot.  The protocol is blunt and
effective: run one target ``repro`` command **twice** with the two
knobs most likely to expose hidden nondeterminism perturbed between
the runs —

* ``PYTHONHASHSEED`` — flushes out ``dict``/``set`` iteration-order
  and salted-``hash()`` dependence (the RD102/RL101 classes);
* ``--jobs`` — flushes out worker-count and completion-order
  dependence in the parallel drivers (the RL101 class, and results
  harvested in completion order, which no static rule checks);

— then byte-compare the two outputs after *canonicalization*, which
scrubs exactly the tokens that legitimately differ between any two
runs (wall-clock durations, throughput rates, output file paths).
Schedule lengths, placements, winner indices, violation lists and
history fingerprints all survive canonicalization, so any surviving
byte difference is a real determinism bug.

A same-process variant backs the ``sanitizer-agrees`` fuzz property
(:mod:`repro.qa.properties`): :func:`schedule_fingerprint` reduces a
schedule to a canonical string so two in-process runs of the pipeline
can be compared without spawning interpreters.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

from repro.errors import AnalysisError

__all__ = [
    "RunOutcome", "SanitizeReport", "canonicalize_output",
    "sanitize_command", "schedule_fingerprint",
]

#: Tokens that legitimately vary between two healthy runs, replaced by
#: stable placeholders before comparison.  Everything else must match.
_SCRUBBERS: tuple[tuple[re.Pattern[str], str], ...] = (
    # wall-clock durations: "0.31s", "12.5 ms", "3.1 seconds", "2m03s"
    (re.compile(r"\b\d+(?:[._]\d+)*\s*(?:ms|s|sec|secs|seconds)\b"),
     "<DURATION>"),
    # throughput rates: "8123 nodes/s", "1,204.7 trials/s"
    (re.compile(r"\b\d[\d,_]*(?:\.\d+)?\s*(?:[A-Za-z]+/s)\b"), "<RATE>"),
    # "... written to /tmp/xyz" / "... appended under DIR (run abc123)"
    (re.compile(r"(written to|appended under|saved to)\s+\S+"),
     r"\1 <PATH>"),
    # run/trace identifiers minted per invocation
    (re.compile(r"\brun[-_ ]?id[=: ]+\S+", re.IGNORECASE), "run-id <ID>"),
    # pointers to temp dirs leak mkdtemp suffixes
    (re.compile(r"/tmp/\S+"), "<TMP>"),
    # the worker count itself is perturbed between the two runs, so a
    # command echoing its own --jobs setting is not a violation
    (re.compile(r"\b(jobs|workers?)[=: ]+\d+\b"), r"\1=<N>"),
)


def canonicalize_output(text: str) -> str:
    """Scrub run-varying tokens (durations, rates, paths, run ids)."""
    for pattern, repl in _SCRUBBERS:
        text = pattern.sub(repl, text)
    return text


@dataclass(frozen=True)
class RunOutcome:
    """One of the two perturbed executions."""

    argv: tuple[str, ...]
    hashseed: int
    jobs: int | None
    returncode: int
    stdout: str
    stderr: str

    @property
    def canonical(self) -> str:
        return (f"exit={self.returncode}\n"
                + canonicalize_output(self.stdout)
                + "\n--- stderr ---\n"
                + canonicalize_output(self.stderr))


@dataclass
class SanitizeReport:
    """The double-run verdict: identical canonical outputs, or a diff."""

    target: tuple[str, ...]
    runs: list[RunOutcome] = field(default_factory=list)
    diff: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diff

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def describe(self) -> str:
        a, b = self.runs
        head = (
            f"sanitize {' '.join(self.target)}: "
            f"run A (PYTHONHASHSEED={a.hashseed}, jobs={a.jobs}) vs "
            f"run B (PYTHONHASHSEED={b.hashseed}, jobs={b.jobs})"
        )
        if self.ok:
            return head + "\n  outputs byte-identical after canonicalization"
        return head + (
            f"\n  DETERMINISM VIOLATION: {len(self.diff)} differing "
            "diff line(s)"
        )

    def to_dict(self) -> dict:
        return {
            "format": "repro-sanitize",
            "version": 1,
            "target": list(self.target),
            "ok": self.ok,
            "runs": [
                {
                    "argv": list(r.argv),
                    "hashseed": r.hashseed,
                    "jobs": r.jobs,
                    "returncode": r.returncode,
                }
                for r in self.runs
            ],
            "diff": self.diff,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _with_jobs(target: tuple[str, ...], jobs: int) -> tuple[tuple[str, ...], int | None]:
    """Rewrite an existing ``--jobs`` value; never inject one (the
    target subcommand may not accept it).  Returns the effective jobs
    value, or None when the target runs serially with no such flag."""
    args = list(target)
    for i, arg in enumerate(args):
        if arg == "--jobs" and i + 1 < len(args):
            args[i + 1] = str(jobs)
            return tuple(args), jobs
        if arg.startswith("--jobs="):
            args[i] = f"--jobs={jobs}"
            return tuple(args), jobs
    return tuple(args), None


def _run_once(
    target: tuple[str, ...],
    *,
    hashseed: int,
    jobs: int,
    timeout: float,
    python: str,
) -> RunOutcome:
    argv_target, effective_jobs = _with_jobs(target, jobs)
    argv = (python, "-m", "repro", *argv_target)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True,
            timeout=timeout, env=env, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise AnalysisError(
            f"sanitize target timed out after {timeout:.0f}s: "
            f"{' '.join(argv_target)}"
        ) from exc
    except OSError as exc:
        raise AnalysisError(f"cannot launch {argv[0]}: {exc}") from exc
    return RunOutcome(
        argv=argv, hashseed=hashseed, jobs=effective_jobs,
        returncode=proc.returncode, stdout=proc.stdout,
        stderr=proc.stderr,
    )


def sanitize_command(
    target: list[str] | tuple[str, ...],
    *,
    jobs_a: int = 1,
    jobs_b: int = 2,
    hashseed_a: int = 101,
    hashseed_b: int = 202,
    timeout: float = 120.0,
    python: str | None = None,
) -> SanitizeReport:
    """Run ``repro <target>`` twice under perturbed ``PYTHONHASHSEED``
    and ``--jobs`` and diff the canonicalized outputs.

    The target's own ``--jobs`` value (when present) is rewritten to
    ``jobs_a``/``jobs_b`` per run; a target without the flag is still
    perturbed by the hash seed.  Raises :class:`AnalysisError` for an
    unlaunchable or timed-out target; a *failing* target is fine — the
    two runs must merely fail identically.
    """
    if not target:
        raise AnalysisError(
            "sanitize needs a target repro subcommand, e.g. "
            "`repro sanitize -- schedule figure1 --arch mesh --pes 4`"
        )
    interp = python if python is not None else sys.executable
    runs = [
        _run_once(tuple(target), hashseed=hashseed_a, jobs=jobs_a,
                  timeout=timeout, python=interp),
        _run_once(tuple(target), hashseed=hashseed_b, jobs=jobs_b,
                  timeout=timeout, python=interp),
    ]
    diff = list(difflib.unified_diff(
        runs[0].canonical.splitlines(),
        runs[1].canonical.splitlines(),
        fromfile=f"run-a (hashseed={hashseed_a}, jobs={runs[0].jobs})",
        tofile=f"run-b (hashseed={hashseed_b}, jobs={runs[1].jobs})",
        lineterm="",
    ))
    return SanitizeReport(target=tuple(target), runs=runs, diff=diff)


def schedule_fingerprint(schedule) -> str:
    """A canonical, order-independent rendering of a schedule — the
    same-process currency of the ``sanitizer-agrees`` fuzz property.

    Two runs of a deterministic pipeline must produce byte-identical
    fingerprints whatever the iteration order of any internal dict or
    set happened to be.
    """
    rows = sorted(
        f"{p.node}@pe{p.pe}:{p.start}+{p.duration}"
        for p in schedule.placements()
    )
    return f"L{schedule.length}|" + ";".join(rows)
