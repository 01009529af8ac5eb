"""Typed diagnostics shared by both static-analysis heads.

A :class:`Diagnostic` is one finding: a stable rule code (``RA1xx``
graph, ``RA2xx`` architecture, ``RA3xx`` config, ``RA4xx`` schedule for
the input analyzer; ``RL1xx``, ``RD1xx`` and ``RC2xx`` for the source
analyzer), a severity, a human message, an optional fix hint, and a
*locus* — the node, edge, PE or source file/line the finding is
anchored to.  An
:class:`AnalysisReport` aggregates the findings of one run and knows
how to answer the only question CI asks: "may this proceed?"
(:attr:`AnalysisReport.ok` / :meth:`AnalysisReport.exit_code`).

Findings are data, never exceptions: a broken input produces a report
full of errors, not a stack trace (see ``docs/analysis.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Severity", "SEVERITIES", "Diagnostic", "AnalysisReport"]

#: Severity levels, most severe first.  ``error`` findings make the
#: analyzed input unusable (and the CLI exit non-zero); ``warning``
#: findings are suspicious but legal; ``info`` findings are facts worth
#: surfacing (e.g. the statically proven schedule-length lower bound).
SEVERITIES: tuple[str, ...] = ("error", "warning", "info")

Severity = str


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes
    ----------
    code:
        Stable rule code (``RA101``, ``RL103``, ...); the catalogue in
        :mod:`repro.analyze.rules` maps every code to its metadata.
    severity:
        ``"error"``, ``"warning"`` or ``"info"``.
    message:
        Human-readable description of this specific finding.
    hint:
        How to fix it (defaults to the rule's catalogue hint).
    node / edge / pe:
        Input-analyzer locus: the graph node, the ``(src, dst)`` edge,
        or the 0-based processor id the finding points at.
    file / line / col:
        Codebase-lint locus (1-based line, 0-based column).
    """

    code: str
    severity: Severity
    message: str
    hint: str = ""
    node: str | None = None
    edge: tuple[str, str] | None = None
    pe: int | None = None
    file: str | None = None
    line: int | None = None
    col: int | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def locus(self) -> str:
        """Compact rendering of wherever this finding points."""
        parts: list[str] = []
        if self.file is not None:
            where = self.file
            if self.line is not None:
                where += f":{self.line}"
            parts.append(where)
        if self.node is not None:
            parts.append(f"node {self.node}")
        if self.edge is not None:
            parts.append(f"edge {self.edge[0]}->{self.edge[1]}")
        if self.pe is not None:
            parts.append(f"pe{self.pe + 1}")
        return ", ".join(parts)

    def render(self) -> str:
        """One-line human form: ``error RA101 [node A]: message``."""
        locus = self.locus
        where = f" [{locus}]" if locus else ""
        text = f"{self.severity} {self.code}{where}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        """JSON-safe form; locus keys are omitted when unset."""
        out: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.node is not None:
            out["node"] = self.node
        if self.edge is not None:
            out["edge"] = list(self.edge)
        if self.pe is not None:
            out["pe"] = self.pe
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        if self.col is not None:
            out["col"] = self.col
        return out


@dataclass
class AnalysisReport:
    """The findings of one analyzer or lint run.

    ``subject`` labels what was analyzed (a workload/architecture pair,
    a source tree); ``suppressed`` counts findings silenced by inline
    ``# repro-lint: disable=CODE`` comments (source analyzer only).
    """

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "AnalysisReport") -> None:
        """Fold another report's findings into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.suppressed += other.suppressed

    # ------------------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity("error")

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity("warning")

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity("info")

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors

    def exit_code(self, *, strict: bool = False) -> int:
        """Process exit code: 1 on errors (also warnings when
        ``strict``), 0 otherwise."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def codes(self) -> list[str]:
        """The distinct rule codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def summary(self) -> str:
        counts = ", ".join(
            f"{len(self.by_severity(s))} {s}(s)" for s in SEVERITIES
        )
        text = f"{counts}"
        if self.suppressed:
            text += f", {self.suppressed} suppressed"
        return text

    def describe(self) -> str:
        """Multi-line human report (findings sorted by severity)."""
        head = f"analysis of {self.subject}: " if self.subject else ""
        lines = [f"{head}{self.summary()}"]
        rank = {s: i for i, s in enumerate(SEVERITIES)}
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (rank[d.severity], d.code, d.locus),
        )
        lines.extend(f"  {d.render()}" for d in ordered)
        return "\n".join(lines)
