"""Unit tests for the source analyzer's per-statement rules (RL1xx)
and the wall-clock rule (RD103) on single modules.

Two obligations: the shipped tree lints clean (the zero-error
baseline), and each rule actually fires — including the seeded
mutation test, which plants a wall-clock read in a copy of
``repro/core/cyclo.py`` and demands the CLI reject it with RD103.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.analyze import infer_module, lint_paths, lint_source
from repro.cli import main
from repro.errors import AnalysisError

PACKAGE_DIR = Path(repro.__file__).parent


def codes(found):
    return sorted(d.code for d in found)


class TestModuleInference:
    def test_anchors_at_repro(self):
        assert infer_module("src/repro/core/cyclo.py") == "repro.core.cyclo"
        assert infer_module("/tmp/x9/repro/graph/io.py") == "repro.graph.io"

    def test_package_init(self):
        assert infer_module("src/repro/qa/__init__.py") == "repro.qa"

    def test_outside_any_repro_tree(self):
        assert infer_module("/opt/scripts/tool.py") == "tool"


class TestRulesFire:
    def test_rl101_global_random(self):
        found, _ = lint_source(
            "import random\nx = random.randint(0, 9)\n",
            module="repro.core.rotate",
        )
        assert codes(found) == ["RL101"]

    def test_rl101_numpy_chain(self):
        found, _ = lint_source(
            "import numpy as np\nx = np.random.rand(3)\n",
            module="repro.sim.engine",
        )
        assert codes(found) == ["RL101"]

    def test_rl101_unseeded_random_instance(self):
        found, _ = lint_source(
            "import random\nrng = random.Random()\n",
            module="repro.core.rotate",
        )
        assert codes(found) == ["RL101"]

    @pytest.mark.parametrize("src", [
        "rng = random.Random(None)", "rng = random.Random(x=None)",
    ])
    def test_rl101_none_seed_is_unseeded(self, src):
        # Random(None) seeds from OS entropy, like Random()
        found, _ = lint_source(
            f"import random\n{src}\n", module="repro.core.rotate",
        )
        assert codes(found) == ["RL101"]

    def test_rl101_seeded_instance_is_fine(self):
        found, _ = lint_source(
            "import random\nrng = random.Random(7)\n",
            module="repro.core.rotate",
        )
        assert found == []

    @pytest.mark.parametrize("call", [
        "hash(node)", "uuid.uuid4()", "os.urandom(8)",
        "secrets.token_bytes(8)", "secrets.token_hex(8)",
    ])
    def test_rl101_salted_hash_and_os_entropy(self, call):
        found, _ = lint_source(f"x = {call}\n", module="repro.perf.prio")
        assert codes(found) == ["RL101"]

    def test_rl101_fires_in_qa(self):
        # qa threads seeded Random(seed) like every other package
        found, _ = lint_source(
            "import random\nx = random.random()\n",
            module="repro.qa.generate",
        )
        assert codes(found) == ["RL101"]

    @pytest.mark.parametrize("call", [
        "time.time()", "time.perf_counter()", "time.monotonic()",
        "datetime.now()",
    ])
    @pytest.mark.parametrize("module", [
        "repro.core.cyclo", "repro.graph.io", "repro.retiming.basic",
    ])
    def test_rd103_wall_clock_in_core(self, module, call):
        found, _ = lint_source(
            f"import time, datetime\nt = {call}\n", module=module,
        )
        assert codes(found) == ["RD103"]
        assert found[0].line == 2 and call in found[0].message

    @pytest.mark.parametrize("call", [
        "time.time()", "time.perf_counter()", "time.monotonic()",
        "datetime.now()",
    ])
    @pytest.mark.parametrize(
        "module", ["repro.obs.spans", "repro.perf.bench", "repro.qa.fuzz"]
    )
    def test_rd103_allowlisted_modules(self, module, call):
        found, _ = lint_source(
            f"import time, datetime\nt = {call}\n", module=module,
        )
        assert found == []

    def test_rl103_hand_composed_hop_cost(self):
        found, _ = lint_source(
            "m = model.cost(arch.hops(p, q), volume)\n",
            module="repro.core.psl",
        )
        assert codes(found) == ["RL103"]

    def test_rl103_direct_comm_model_access(self):
        found, _ = lint_source(
            "m = arch.comm_model.cost(3, volume)\n",
            module="repro.schedule.validate",
        )
        assert codes(found) == ["RL103"]

    def test_rl103_allowlisted_in_arch(self):
        found, _ = lint_source(
            "m = self.comm_model.cost(hops, volume)\n",
            module="repro.arch.topology",
        )
        assert found == []

    def test_rl103_comm_cost_wrapper_is_fine(self):
        found, _ = lint_source(
            "m = arch.comm_cost(p, q, volume)\n",
            module="repro.core.psl",
        )
        assert found == []

    def test_rl104_bare_except_fires_anywhere(self):
        src = "try:\n    x()\nexcept:\n    pass\n"
        found, _ = lint_source(src, module="repro.analysis.report")
        assert codes(found) == ["RL104"]

    def test_rl105_broad_except_in_core(self):
        src = "try:\n    x()\nexcept Exception:\n    pass\n"
        found, _ = lint_source(src, module="repro.graph.csdfg")
        assert codes(found) == ["RL105"]
        found, _ = lint_source(src, module="repro.cli")
        assert found == []

    def test_rl106_builtin_raise_in_core(self):
        found, _ = lint_source(
            "raise ValueError('bad')\n", module="repro.retiming.basic"
        )
        assert codes(found) == ["RL106"]

    def test_rl106_typed_and_reraise_are_fine(self):
        src = (
            "from repro.errors import GraphError\n"
            "def f():\n"
            "    try:\n"
            "        raise GraphError('x')\n"
            "    except GraphError:\n"
            "        raise\n"
            "    raise NotImplementedError\n"
        )
        found, _ = lint_source(src, module="repro.graph.csdfg")
        assert found == []

    @pytest.mark.parametrize("module", [
        "repro.core.cyclo", "repro.perf.bench", "repro.obs.runtime",
    ])
    def test_rl107_print_in_instrumented_code(self, module):
        found, _ = lint_source("print('debug')\n", module=module)
        assert codes(found) == ["RL107"]

    @pytest.mark.parametrize("module", [
        "repro.cli", "repro.obs.export", "repro.qa.fuzz",
    ])
    def test_rl107_cli_and_exporters_may_print(self, module):
        found, _ = lint_source("print('output')\n", module=module)
        assert found == []

    def test_rl107_suppressible(self):
        found, suppressed = lint_source(
            "print('x')  # repro-lint: disable=RL107\n",
            module="repro.perf.bench",
        )
        assert found == [] and suppressed == 1

    def test_syntax_error_is_analysis_error(self):
        with pytest.raises(AnalysisError, match="cannot parse"):
            lint_source("def f(:\n", module="repro.core.x")


class TestSuppression:
    SRC = "import time\nt = time.time()  # repro-lint: disable={}\n"

    def test_matching_code_suppresses(self):
        found, suppressed = lint_source(
            self.SRC.format("RD103"), module="repro.core.cyclo"
        )
        assert found == [] and suppressed == 1

    def test_all_suppresses(self):
        found, suppressed = lint_source(
            self.SRC.format("all"), module="repro.core.cyclo"
        )
        assert found == [] and suppressed == 1

    def test_comma_separated_codes(self):
        found, suppressed = lint_source(
            self.SRC.format("RL101, RD103"), module="repro.core.cyclo"
        )
        # RD103 is silenced; the RL101 token silenced nothing, which
        # the suppression checker reports as a warning (RL109)
        assert codes(found) == ["RL109"] and suppressed == 1

    def test_wrong_code_does_not_suppress(self):
        found, suppressed = lint_source(
            self.SRC.format("RL103"), module="repro.core.cyclo"
        )
        assert codes(found) == ["RD103", "RL109"] and suppressed == 0

    def test_other_lines_are_unaffected(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=RD103\n"
            "b = time.time()\n"
        )
        found, suppressed = lint_source(src, module="repro.core.cyclo")
        assert codes(found) == ["RD103"] and suppressed == 1
        assert found[0].line == 3


class TestShippedTree:
    def test_zero_error_baseline(self):
        report = lint_paths([PACKAGE_DIR])
        assert report.errors == [], report.describe()

    def test_baseline_has_documented_suppressions(self):
        # the deliberate sites: the deadline budget in cyclo (RD103
        # x2), its recover_on_error boundary (RL105), the per-round
        # contention reprice in pipeline (RC203), the diameter
        # pricing in arch_rules (RL103) and the independent
        # re-derivations in qa and schedule_cert (RL103, both forms on
        # one line: x4)
        report = lint_paths([PACKAGE_DIR])
        assert report.suppressed == 9

    def test_cli_lint_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestMutationSeeding:
    """The acceptance gate: inject ``time.time()`` into a copy of
    ``repro/core/cyclo.py`` and the lint must reject it with RD103."""

    PLANTED = "    _t0 = time.time()"

    def plant(self, tmp_path: Path) -> Path:
        victim = tmp_path / "repro" / "core" / "cyclo.py"
        victim.parent.mkdir(parents=True)
        shutil.copy(PACKAGE_DIR / "core" / "cyclo.py", victim)
        text = victim.read_text()
        marker = "stop_reason = \"completed\""
        assert marker in text
        victim.write_text(text.replace(
            marker, marker + "\n" + self.PLANTED, 1
        ))
        return victim

    def test_mutated_core_fails_with_rd103(self, tmp_path, capsys):
        victim = self.plant(tmp_path)
        line = victim.read_text().splitlines().index(self.PLANTED) + 1
        assert main(["lint", str(victim)]) == 1
        out = capsys.readouterr().out
        assert "RD103" in out and "time.time" in out
        assert f"{victim}:{line}]" in out

    def test_pristine_copy_still_passes(self, tmp_path, capsys):
        victim = tmp_path / "repro" / "core" / "cyclo.py"
        victim.parent.mkdir(parents=True)
        shutil.copy(PACKAGE_DIR / "core" / "cyclo.py", victim)
        assert main(["lint", str(victim)]) == 0
