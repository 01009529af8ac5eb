"""Suppression comments of the source analyzer (``repro lint``).

Every source rule (``RL1xx``, ``RD1xx``, ``RC2xx``) honours one
comment grammar:

* ``# repro-lint: disable=CODE[,CODE...]`` silences findings **on that
  line** (``disable=all`` silences every code there);
* ``# repro-lint: disable-file=CODE[,CODE...]`` anywhere in a file
  silences findings **for the whole file**.

Silenced findings are counted, never dropped on the floor: they land in
:attr:`~repro.analyze.diagnostics.AnalysisReport.suppressed`.

Suppressions are themselves checked (rule ``RL109``,
``useless-suppression``): a comment naming a code that is not in the
catalogue, or one that silenced nothing in its scope, gets a warning —
stale suppressions are how a rule silently stops protecting a line.
Every token is judged except ``all`` and the known ``RA`` codes,
which apply to inputs, not source.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analyze.diagnostics import Diagnostic
from repro.analyze.rules import RULES, make

__all__ = ["Suppressions", "parse_suppressions", "apply_suppressions"]

_LINE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)
_FILE_RE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)

def _split(raw: str) -> set[str]:
    out = set()
    for piece in raw.split(","):
        piece = piece.strip()
        out.add("all" if piece.lower() == "all" else piece.upper())
    return out


@dataclass
class Suppressions:
    """Parsed suppression comments of one source file."""

    #: line number -> codes silenced on that line (may contain "all").
    line: dict[int, set[str]] = field(default_factory=dict)
    #: codes silenced for the whole file (may contain "all").
    file: set[str] = field(default_factory=set)
    #: every (lineno, token, is_file_level) as written, for RL109.
    tokens: list[tuple[int, str, bool]] = field(default_factory=list)


def _comments(source: str) -> list[tuple[int, str]]:
    """(lineno, text) of every real comment token.  Tokenizing (rather
    than regex-scanning raw lines) keeps grammar examples inside
    docstrings from parsing as suppressions."""
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # unparsable text: fall back to raw lines (still sound — the
        # analyzer rejects unparsable files before this runs)
        return list(enumerate(source.splitlines(), start=1))


def parse_suppressions(source: str) -> Suppressions:
    """Collect inline and file-level suppressions from source text."""
    out = Suppressions()
    for lineno, text in _comments(source):
        match = _FILE_RE.search(text)
        if match:
            codes = _split(match.group(1))
            out.file |= codes
            out.tokens.extend((lineno, c, True) for c in sorted(codes))
            continue
        match = _LINE_RE.search(text)
        if match:
            codes = _split(match.group(1))
            out.line.setdefault(lineno, set()).update(codes)
            out.tokens.extend((lineno, c, False) for c in sorted(codes))
    return out


def apply_suppressions(
    findings: list[Diagnostic],
    source: str,
    *,
    path: str = "<string>",
) -> tuple[list[Diagnostic], int]:
    """Filter ``findings`` — every source finding of one file — through
    the file's suppression comments.

    Returns ``(kept, suppressed_count)`` where ``kept`` is sorted by
    locus and already includes the file's ``RL109`` useless-suppression
    warnings.
    """
    sheet = parse_suppressions(source)
    kept: list[Diagnostic] = []
    suppressed = 0
    # which (scope, token) pairs actually silenced something; scope is
    # the line number for inline comments, -1 for file level
    used: set[tuple[int, str]] = set()
    for diag in findings:
        here = sheet.line.get(diag.line or -1, set())
        if "all" in here or diag.code in here:
            suppressed += 1
            token = diag.code if diag.code in here else "all"
            used.add((diag.line or -1, token))
        elif "all" in sheet.file or diag.code in sheet.file:
            suppressed += 1
            token = diag.code if diag.code in sheet.file else "all"
            used.add((-1, token))
        else:
            kept.append(diag)
    kept.extend(_useless(sheet, used, path))
    kept.sort(key=lambda d: (d.line or 0, d.col or 0, d.code))
    return kept, suppressed


def _useless(
    sheet: Suppressions,
    used: set[tuple[int, str]],
    path: str,
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for lineno, token, file_level in sheet.tokens:
        if token == "all":
            continue  # a blanket waiver; never judged
        if token not in RULES:
            out.append(make(
                "RL109",
                f"suppression names unknown code {token!r}: it is "
                "not in the rule catalogue",
                file=path, line=lineno, col=0,
            ))
            continue
        if token.startswith("RA"):
            continue  # input rules never fire on source
        scope = -1 if file_level else lineno
        if (scope, token) not in used:
            where = "anywhere in this file" if file_level else "on this line"
            out.append(make(
                "RL109",
                f"suppression of {token} silences nothing {where}",
                file=path, line=lineno, col=0,
            ))
    return out
