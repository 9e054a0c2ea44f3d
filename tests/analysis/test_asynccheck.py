"""Unit tests for TIME001, the deadline rule of the async service code.

It is the one rule left of the coroutine-safety pass, and a core file
rule now: the engine's default run includes it.
"""

import ast
import textwrap

from repro.analysis.engine import LintEngine
from repro.analysis.rules import _ModuleScopes, _scope_walk


def _analyze(source, select=None, module="repro.service.app"):
    return LintEngine(select=select).lint_source(
        textwrap.dedent(source), module=module, path=f"{module}.py"
    )


def _codes(diags):
    return [d.code for d in diags]


class TestHelpers:
    def test_expanded_call_name_follows_import_aliases(self):
        scopes = _ModuleScopes(
            ast.parse("import numpy as np\nfrom time import sleep\n")
        )
        assert scopes.expand("np.load") == "numpy.load"
        assert scopes.expand("sleep") == "time.sleep"
        assert scopes.expand("os.remove") == "os.remove"

    def test_scope_walk_yields_but_does_not_enter_nested_defs(self):
        tree = ast.parse(
            "def outer():\n"
            "    x = 1\n"
            "    def inner():\n"
            "        y = 2\n"
        )
        outer = tree.body[0]
        names = [
            n.id for n in _scope_walk(outer) if isinstance(n, ast.Name)
        ]
        assert names == ["x"]
        assert any(
            isinstance(n, ast.FunctionDef) and n.name == "inner"
            for n in _scope_walk(outer)
        )


class TestTime001:
    def test_wall_clock_assigned_to_deadline(self):
        diags = _analyze(
            """
            import time

            def plan(budget):
                deadline = time.time() + budget
                return deadline
            """
        )
        assert _codes(diags) == ["TIME001"]
        assert "monotonic" in diags[0].message

    def test_wall_clock_compared_with_deadline_attr(self):
        diags = _analyze(
            """
            import time

            def due(job):
                return time.time() >= job.deadline_s
            """
        )
        assert _codes(diags) == ["TIME001"]

    def test_mixed_clock_domains(self):
        diags = _analyze(
            """
            import time

            def skew():
                return time.monotonic() - time.time()
            """
        )
        assert _codes(diags) == ["TIME001"]

    def test_record_only_wall_clock_is_clean(self):
        diags = _analyze(
            """
            import time

            def stamp(started):
                return {"now": time.time(), "elapsed": time.time() - started}
            """
        )
        assert diags == []


class TestAnalyzerSurface:
    def test_select_narrows_to_one_code(self):
        source = """
            import time

            def plan(budget):
                assert budget > 0
                deadline = time.time() + budget
                return deadline
        """
        assert _codes(_analyze(source)) == ["ASSERT001", "TIME001"]
        assert _codes(_analyze(source, select=["TIME001"])) == ["TIME001"]
