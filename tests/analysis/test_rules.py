"""Per-rule pass/fail cases for the repro-lint rule catalogue.

Every rule gets at least one source snippet that must trigger it and
one that must stay clean (including module-scoping negatives).
"""

import textwrap

from repro.analysis.engine import LintEngine


def lint(source, module, codes=None):
    """Lint dedented ``source`` as ``module``; return diagnostic codes."""
    engine = LintEngine(select=list(codes) if codes else None)
    return [d.code for d in engine.lint_source(textwrap.dedent(source), module=module)]


class TestASSERT001:
    def test_flags_library_assert(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        assert lint(src, "repro.core.foo", ["ASSERT001"]) == ["ASSERT001"]

    def test_exempts_test_modules(self):
        src = "def test_f():\n    assert 1 + 1 == 2\n"
        assert lint(src, "tests.core.test_foo", ["ASSERT001"]) == []
        assert lint(src, "repro.conftest", ["ASSERT001"]) == []

    def test_passes_on_raise(self):
        src = """
            def f(x):
                if x <= 0:
                    raise ValueError("x must be positive")
                return x
        """
        assert lint(src, "repro.core.foo", ["ASSERT001"]) == []


class TestLOOP001:
    def test_flags_loop_over_xadj(self):
        src = """
            def f(xadj, adjncy):
                for j in range(xadj[0], xadj[1]):
                    yield adjncy[j]
        """
        assert lint(src, "repro.graph.foo", ["LOOP001"]) == ["LOOP001"]

    def test_flags_attribute_access(self):
        src = """
            def f(g):
                for v in g.adjncy:
                    yield v
        """
        assert lint(src, "repro.partition.foo", ["LOOP001"]) == ["LOOP001"]

    def test_passes_vectorised(self):
        src = """
            import numpy as np
            def f(g):
                src = np.repeat(
                    np.arange(g.num_vertices, dtype=np.int64), g.degrees()
                )
                return src
        """
        assert lint(src, "repro.graph.foo", ["LOOP001"]) == []

    def test_scoped_to_hot_path_modules(self):
        src = """
            def f(xadj):
                for j in range(xadj[0], xadj[1]):
                    yield j
        """
        assert lint(src, "repro.mesh.foo", ["LOOP001"]) == []


class TestRuleMetadata:
    def test_every_rule_has_pass_and_fail_coverage(self):
        # guard: a new rule must extend this file's coverage (the PERF
        # rules are covered by test_perf.py, TIME001 by
        # test_asynccheck.py)
        from repro.analysis.engine import all_rules

        covered = {"ASSERT001", "LOOP001"}
        perf = {"PERF001", "PERF002", "PERF003", "PERF005"}
        assert {r.code for r in all_rules()} == covered | perf | {"TIME001"}

    def test_default_run_applies_every_rule(self):
        # no rule is opt-in: the PERF rules run with the others, and
        # --select still narrows to any one of them
        from repro.analysis.engine import all_rules

        assert LintEngine().rules == all_rules()
        selected = LintEngine(select=["PERF001"]).rules
        assert {r.code for r in selected} == {"PERF001"}

    def test_rules_have_docs(self):
        from repro.analysis.engine import all_rules

        for rule in all_rules():
            assert rule.code and rule.name and rule.description
            assert rule.__doc__
