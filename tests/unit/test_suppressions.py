"""Tests for the suppression grammar (``repro.analyze.suppress``).

One grammar serves every source rule (RL, RD and RC codes), judged
once per file.  These tests pin down the semantics the docs promise —
multiple codes on one line, file-level vs inline scope, and the RL109
useless-suppression warning for codes that are unknown or silence
nothing.
"""

import pytest

from repro.analyze import (
    Diagnostic,
    apply_suppressions,
    parse_suppressions,
)
from repro.analyze.suppress import Suppressions


def diag(code, line, severity="error"):
    return Diagnostic(
        code=code, severity=severity, message=f"planted {code}",
        file="x.py", line=line,
    )


def codes(found):
    return sorted(d.code for d in found)


class TestParsing:
    def test_inline_single(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=RL101\n")
        assert sup.line == {1: {"RL101"}}
        assert sup.file == set()

    def test_inline_multiple_codes(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=RL101, RD102,RC203\n"
        )
        assert sup.line == {1: {"RL101", "RD102", "RC203"}}

    def test_file_level(self):
        sup = parse_suppressions(
            "# repro-lint: disable-file=RL107\nprint('x')\n"
        )
        assert sup.file == {"RL107"}
        assert sup.line == {}

    def test_codes_are_case_normalized(self):
        sup = parse_suppressions("x = 1  # repro-lint: disable=rl101\n")
        assert sup.line == {1: {"RL101"}}

    def test_docstring_grammar_examples_are_not_suppressions(self):
        # only real COMMENT tokens count: the grammar's own
        # documentation must not silence anything
        sup = parse_suppressions(
            '"""Use ``# repro-lint: disable=CODE`` to silence."""\n'
            "x = 1\n"
        )
        assert sup.line == {} and sup.file == set()

    def test_broken_source_falls_back_to_raw_lines(self):
        # un-tokenizable input (the analyzers reject it later) still
        # yields a best-effort parse rather than an exception
        sup = parse_suppressions(
            "def f(:\n    x  # repro-lint: disable=RL101\n"
        )
        assert sup.line == {2: {"RL101"}}


class TestApplication:
    def test_inline_scope_is_one_line(self):
        src = "a = 1  # repro-lint: disable=RL101\nb = 2\n"
        kept, n = apply_suppressions(
            [diag("RL101", 1), diag("RL101", 2)], src, path="x.py",
        )
        assert codes(kept) == ["RL101"] and kept[0].line == 2
        assert n == 1

    def test_file_level_scope_is_whole_file(self):
        src = "# repro-lint: disable-file=RL101\na = 1\nb = 2\n"
        kept, n = apply_suppressions(
            [diag("RL101", 2), diag("RL101", 3)], src, path="x.py",
        )
        assert kept == [] and n == 2

    def test_multiple_codes_one_line(self):
        src = "a = 1  # repro-lint: disable=RL101,RL105\n"
        kept, n = apply_suppressions(
            [diag("RL101", 1), diag("RL105", 1)], src, path="x.py",
        )
        assert kept == [] and n == 2

    def test_all_silences_everything_on_the_line(self):
        src = "a = 1  # repro-lint: disable=all\n"
        kept, n = apply_suppressions(
            [diag("RL101", 1), diag("RL105", 1)], src, path="x.py",
        )
        assert kept == [] and n == 2

    def test_all_is_never_judged_useless(self):
        src = "a = 1  # repro-lint: disable=all\n"
        kept, n = apply_suppressions([], src, path="x.py")
        assert kept == [] and n == 0


class TestUselessSuppression:
    def test_unknown_code_warns(self):
        src = "a = 1  # repro-lint: disable=RL999\n"
        kept, _ = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"]
        assert kept[0].severity == "warning"
        assert "RL999" in kept[0].message

    def test_unused_known_code_warns(self):
        src = "a = 1  # repro-lint: disable=RL101\n"
        kept, _ = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"]

    def test_unused_file_level_warns(self):
        src = "# repro-lint: disable-file=RL101\na = 1\n"
        kept, _ = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"]
        assert "anywhere in this file" in kept[0].message

    def test_used_code_does_not_warn(self):
        src = "a = 1  # repro-lint: disable=RL101\n"
        kept, n = apply_suppressions(
            [diag("RL101", 1)], src, path="x.py",
        )
        assert kept == [] and n == 1


class TestOneJudge:
    """Every source finding of a file meets the file's suppressions in
    one call, so RL, RD and RC tokens are all judged there."""

    def test_unused_flow_token_warns(self):
        src = "a = 1  # repro-lint: disable=RC203\n"
        kept, n = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"] and n == 0

    def test_retired_code_is_unknown(self):
        src = "a = 1  # repro-lint: disable=RL102\n"
        kept, _ = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"]
        assert "unknown code 'RL102'" in kept[0].message

    def test_garbage_token_warns_once(self):
        src = "a = 1  # repro-lint: disable=XQ999\n"
        kept, _ = apply_suppressions([], src, path="x.py")
        assert codes(kept) == ["RL109"]

    def test_mixed_tokens_spent_in_one_call(self):
        src = "a = 1  # repro-lint: disable=RL101,RC203\n"
        kept, n = apply_suppressions(
            [diag("RL101", 1), diag("RC203", 1)], src, path="x.py",
        )
        assert kept == [] and n == 2

    def test_input_codes_are_never_judged(self):
        src = "a = 1  # repro-lint: disable=RA101\n"
        kept, n = apply_suppressions([], src, path="x.py")
        assert kept == [] and n == 0


class TestUnownedDiagnosticsPassThrough:
    def test_suppression_only_spends_on_matching_codes(self):
        # a diagnostic whose code is not on the line passes through
        src = "a = 1  # repro-lint: disable=RL101\n"
        kept, n = apply_suppressions(
            [diag("RL105", 1)], src, path="x.py",
        )
        assert codes(kept) == ["RL105", "RL109"] and n == 0

    def test_empty_source_is_passthrough(self):
        kept, n = apply_suppressions(
            [diag("RL101", 1)], "", path="x.py",
        )
        assert codes(kept) == ["RL101"] and n == 0

    def test_suppressions_dataclass_defaults(self):
        sup = Suppressions()
        assert sup.line == {} and sup.file == set() and sup.tokens == []
