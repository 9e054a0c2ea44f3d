"""The SPMD rule family: per-rule cases, discovery, and golden output.

The fixture package under ``spmd_fixtures/`` seeds exactly the
violations the analyzer must find (and only those); the JSON and SARIF
renderings of that run are pinned as golden files.  The SPMD001 seeds
are re-validated *dynamically* in ``tests/runtime/test_sentinel.py``.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

from repro.analysis.engine import LintEngine, all_rules
from repro.analysis.reporters import as_json_payload, as_sarif_payload

FIXDIR = Path(__file__).parent / "spmd_fixtures"
GOLDEN = Path(__file__).parent / "golden"


def analyze(
    source, module="m", path="m.py", select=None, ignore=None,
    families=("spmd",),
):
    engine = LintEngine(select=select, ignore=ignore, families=families)
    return engine.lint_source(
        textwrap.dedent(source), module=module, path=path
    )


def codes(source, **kwargs):
    return [d.code for d in analyze(source, **kwargs)]


class TestSPMD001:
    def test_global_mutation_in_superstep(self):
        src = """
            ACC = []

            def _step(ctx):
                ACC.append(ctx.rank)

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == ["SPMD001"]

    def test_transitively_reached_helper_is_checked(self):
        src = """
            ACC = []

            def _helper(ctx):
                ACC.append(ctx.rank)

            def _step(ctx):
                return _helper(ctx)

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == ["SPMD001"]

    def test_ctx_state_mutation_is_clean(self):
        src = """
            def _step(ctx):
                ctx.state["k"] = ctx.rank
                ctx.state.setdefault("log", []).append(1)

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == []

    def test_local_mutation_is_clean(self):
        src = """
            def _step(ctx):
                acc = []
                acc.append(ctx.rank)
                return acc

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == []

    def test_step_argument_mutation_flagged(self):
        src = """
            def _step(ctx, arg):
                arg.append(ctx.rank)

            def run(sess):
                sess.step(_step, [])
        """
        assert codes(src) == ["SPMD001"]

    def test_alias_of_shared_flagged(self):
        src = """
            def _step(ctx):
                table = ctx.shared["table"]
                table[ctx.rank] = 1

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == ["SPMD001"]

    def test_global_rebinding_flagged(self):
        src = """
            COUNT = 0

            def _step(ctx):
                global COUNT
                COUNT = COUNT + 1

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == ["SPMD001"]

    def test_unregistered_function_not_checked(self):
        src = """
            ACC = []

            def helper(ctx):
                ACC.append(ctx.rank)
        """
        assert codes(src) == []

    def test_chaos_step_wrapped_superstep_still_checked(self):
        """The fault harness's ChaosStep wrapper is transparent to the
        pass — the wrapped superstep's races are still found."""
        src = """
            from repro.runtime.faults import ChaosStep

            ACC = []

            def _step(ctx, arg):
                ACC.append(ctx.rank)

            def run(session):
                session.step(ChaosStep(_step, 0, {}), None)
        """
        assert codes(src) == ["SPMD001"]

    def test_chaos_step_wrapped_clean_superstep(self):
        src = """
            from repro.runtime.faults import ChaosStep

            def _step(ctx, arg):
                ctx.state["n"] = ctx.rank

            def run(session):
                session.step(ChaosStep(_step, 0, {}), None)
        """
        assert codes(src) == []


    def test_lambda_superstep_is_checked(self):
        src = """
            ACC = []

            def run():
                spmd_run(2, [lambda ctx: ACC.append(ctx.rank)])
        """
        assert codes(src) == ["SPMD001"]

    def test_partial_wrapped_nested_superstep_is_checked(self):
        src = """
            from functools import partial

            def run():
                seen = []

                def _step(ctx, arg):
                    seen.append(arg)

                spmd_run(2, [partial(_step, 7)])
        """
        assert codes(src) == ["SPMD001"]


class TestAnalyzerPlumbing:
    def test_rules_registered(self):
        assert [r.code for r in all_rules("spmd")] == ["SPMD001"]

    def test_select_and_ignore(self):
        src = """
            ACC = []

            def _step(ctx):
                ACC.append(ctx.rank)
                assert ACC

            def run():
                spmd_run(2, [_step])
        """
        both = dict(families=("core", "spmd"), module="repro.m")
        assert codes(src, **both) == ["SPMD001", "ASSERT001"]  # by line
        assert codes(src, select=["SPMD001"]) == ["SPMD001"]
        assert codes(src, ignore=["ASSERT001"], **both) == ["SPMD001"]

    def test_suppression_comment_honoured(self):
        src = """
            ACC = []

            def _step(ctx):
                ACC.append(ctx.rank)  # repro-lint: disable=SPMD001

            def run():
                spmd_run(2, [_step])
        """
        assert codes(src) == []

    def test_unresolvable_step_is_skipped(self):
        src = """
            def run(steps):
                spmd_run(2, steps)

            def run2(sess, fn):
                sess.step(fn)
        """
        assert codes(src) == []

    def test_syntax_error_file_skipped(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(:\n")
        (tmp_path / "ok.py").write_text(
            "ACC = []\n\n"
            "def _step(ctx):\n    ACC.append(1)\n\n"
            "def run():\n    spmd_run(2, [_step])\n"
        )
        diags = LintEngine(families=("spmd",)).lint_paths([tmp_path])
        assert [d.code for d in diags] == ["E999", "SPMD001"]


class TestFixtureGoldens:
    def _normalized(self):
        diags = LintEngine(families=("core", "spmd")).lint_paths([FIXDIR])
        return sorted(
            dataclasses.replace(d, path=Path(d.path).name) for d in diags
        )

    def test_exact_code_counts(self):
        diags = self._normalized()
        summary = as_json_payload(diags)["summary"]
        assert summary == {"SPMD001": 4}

    def test_clean_modules_stay_clean(self):
        diags = self._normalized()
        flagged = {d.path for d in diags}
        assert "clean.py" not in flagged
        assert "__init__.py" not in flagged

    def test_matches_golden_json(self):
        golden = json.loads((GOLDEN / "spmd_fixtures.json").read_text())
        assert as_json_payload(self._normalized()) == golden

    def test_matches_golden_sarif(self):
        golden = json.loads((GOLDEN / "spmd_fixtures.sarif").read_text())
        assert as_sarif_payload(self._normalized()) == golden

    def test_real_tree_is_spmd_clean(self):
        src_root = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert LintEngine(families=("spmd",)).lint_paths([src_root]) == []
