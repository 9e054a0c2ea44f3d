"""Engine-level behaviour: suppressions, selection, discovery."""

from pathlib import Path

import pytest

from repro.analysis.engine import (
    SYNTAX_ERROR_CODE,
    Diagnostic,
    LintEngine,
    all_rules,
    load_project,
    module_name_for,
)

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[2]

ASSERT_SRC = "def f(x):\n    assert x\n"


class TestSuppressions:
    def test_line_level_disable(self):
        src = "def f(x):\n    assert x  # repro-lint: disable=ASSERT001\n"
        assert LintEngine().lint_source(src, module="repro.m") == []

    def test_line_level_disable_all(self):
        src = "def f(x):\n    assert x  # repro-lint: disable=all\n"
        assert LintEngine().lint_source(src, module="repro.m") == []

    def test_other_code_does_not_suppress(self):
        src = "def f(x):\n    assert x  # repro-lint: disable=LOOP001\n"
        codes = [d.code for d in LintEngine().lint_source(src, module="repro.m")]
        assert codes == ["ASSERT001"]

    def test_file_level_disable(self):
        src = (
            "# repro-lint: disable-file=ASSERT001\n"
            "def f(x):\n    assert x\n\n"
            "def g(x):\n    assert not x\n"
        )
        assert LintEngine().lint_source(src, module="repro.m") == []

    def test_comment_inside_string_does_not_suppress(self):
        src = (
            'NOTE = "# repro-lint: disable-file=ASSERT001"\n'
            "def f(x):\n    assert x\n"
        )
        codes = [d.code for d in LintEngine().lint_source(src, module="repro.m")]
        assert codes == ["ASSERT001"]

    def test_suppression_only_covers_its_line(self):
        src = (
            "def f(x):\n"
            "    assert x  # repro-lint: disable=ASSERT001\n"
            "    assert not x\n"
        )
        diags = LintEngine().lint_source(src, module="repro.m")
        assert [d.line for d in diags] == [3]

    def test_file_level_disable_all(self):
        src = (
            "# repro-lint: disable-file=all\n"
            "def f(x):\n    assert x\n"
        )
        assert LintEngine().lint_source(src, module="repro.m") == []

    def test_multi_code_list_with_odd_whitespace(self):
        src = (
            "def f(x):\n"
            "    assert x  #   repro-lint:   disable = ASSERT001 ,"
            "   LOOP001\n"
        )
        assert LintEngine().lint_source(src, module="repro.m") == []

    def test_multi_code_list_only_named_codes_suppressed(self):
        src = (
            "def f(x):\n"
            "    assert x  # repro-lint: disable=LOOP001, TIME001\n"
        )
        codes = [
            d.code for d in LintEngine().lint_source(src, module="repro.m")
        ]
        assert codes == ["ASSERT001"]


class TestNoStaleSuppressions:
    def test_every_suppressed_code_is_registered(self):
        """A ``disable=`` naming a deleted code silences nothing and
        tells the reader a guard is still there.  The engine reads
        comments only, so the grammar tests above (made-up codes
        inside strings) are not suppressions; the fixture trees seed
        theirs on purpose and are left out."""
        project = load_project(
            [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"],
            exclude=["*/analysis/*fixtures*/*"],
        )
        known = {r.code for r in all_rules()} | {"all"}
        stale = sorted(
            f"{ctx.path}:{line}: {code}"
            for ctx in project.contexts
            for line, codes in [
                (0, ctx.file_suppressions),
                *ctx.line_suppressions.items(),
            ]
            for code in codes - known
        )
        assert stale == []


class TestSelection:
    def test_select_narrows(self):
        engine = LintEngine(select=["LOOP001"])
        assert [r.code for r in engine.rules] == ["LOOP001"]

    def test_ignore_drops(self):
        engine = LintEngine(ignore=["ASSERT001"])
        assert "ASSERT001" not in [r.code for r in engine.rules]

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError, match="NOPE999"):
            LintEngine(select=["NOPE999"])


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for("src/repro/graph/csr.py") == "repro.graph.csr"

    def test_init_maps_to_package(self):
        assert module_name_for("src/repro/graph/__init__.py") == "repro.graph"

    def test_fixture_layout(self):
        path = "tests/analysis/fixtures/repro/partition/loop_bad.py"
        assert module_name_for(path) == "repro.partition.loop_bad"

    def test_unanchored_path_uses_basename(self):
        assert module_name_for("/tmp/scratch/thing.py") == "thing"

    def test_unanchored_path_is_qualified_by_its_packages(self, tmp_path):
        for pkg in ("suite", "suite/graph", "suite/mesh"):
            (tmp_path / pkg).mkdir()
            (tmp_path / pkg / "__init__.py").write_text("")
        (tmp_path / "suite" / "graph" / "test_io.py").write_text("")
        (tmp_path / "suite" / "mesh" / "test_io.py").write_text("")
        assert module_name_for(
            tmp_path / "suite" / "graph" / "test_io.py"
        ) == "suite.graph.test_io"
        assert module_name_for(
            tmp_path / "suite" / "mesh" / "test_io.py"
        ) == "suite.mesh.test_io"
        assert module_name_for(
            tmp_path / "suite" / "mesh" / "__init__.py"
        ) == "suite.mesh"


class TestDiscovery:
    def test_fixture_tree_yields_expected_codes(self):
        diags = LintEngine().lint_paths([FIXTURES])
        by_code = {}
        for d in diags:
            by_code.setdefault(d.code, []).append(d)
        assert set(by_code) == {"ASSERT001", "LOOP001"}

    def test_clean_fixture_is_clean(self):
        clean = FIXTURES / "repro" / "clean_ok.py"
        assert LintEngine().lint_file(clean) == []

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            LintEngine().lint_paths([FIXTURES / "does_not_exist"])

    def test_diagnostics_are_sorted(self):
        diags = LintEngine().lint_paths([FIXTURES])
        assert diags == sorted(diags)


class TestOneParse:
    def _tree(self, tmp_path):
        (tmp_path / "app.py").write_text(
            "import time\n\ndeadline = time.time() + 5\n"
        )
        (tmp_path / "plain.py").write_text("x = 1\n")
        return 2

    def test_every_rule_together_parses_each_file_once(
        self, tmp_path, monkeypatch
    ):
        import ast

        n_files = self._tree(tmp_path)
        calls = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            calls.append(1)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        diags = LintEngine().lint_paths([tmp_path])
        assert len(calls) == n_files
        assert "TIME001" in {d.code for d in diags}


class TestSyntaxErrors:
    def test_unparsable_source_reports_e999(self):
        diags = LintEngine().lint_source("def f(:\n", module="repro.m")
        assert [d.code for d in diags] == [SYNTAX_ERROR_CODE]
        assert diags[0].col >= 1  # 1-based like every other column

    def test_e999_file_inside_multi_target_run(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(:\n")
        (tmp_path / "flagged.py").write_text("def f(x):\n    assert x\n")
        # module name must not look like a test module for ASSERT001
        diags = LintEngine().lint_paths(
            [tmp_path / "bad.py", tmp_path / "flagged.py"]
        )
        assert [d.code for d in diags] == [SYNTAX_ERROR_CODE, "ASSERT001"]

    def test_e999_does_not_abort_directory_walk(self, tmp_path):
        (tmp_path / "a_bad.py").write_text("def f(:\n")
        (tmp_path / "b_ok.py").write_text("x = 1\n")
        diags = LintEngine().lint_paths([tmp_path])
        assert [d.code for d in diags] == [SYNTAX_ERROR_CODE]


class TestExcludePatterns:
    def test_exclude_glob_skips_matching_files(self, tmp_path):
        sub = tmp_path / "fixtures"
        sub.mkdir()
        (sub / "seeded.py").write_text("def f(x):\n    assert x\n")
        (tmp_path / "real.py").write_text("def f(x):\n    assert x\n")
        diags = LintEngine().lint_paths(
            [tmp_path], exclude=["*/fixtures/*"]
        )
        assert [Path(d.path).name for d in diags] == ["real.py"]

    def test_exclude_applies_to_explicit_files(self, tmp_path):
        target = tmp_path / "skip_me.py"
        target.write_text("def f(x):\n    assert x\n")
        assert LintEngine().lint_paths([target], exclude=["*skip_me*"]) == []


class TestColumns:
    def test_columns_are_one_based(self):
        src = "def f(x):\n    assert x\n"
        diags = LintEngine().lint_source(src, module="repro.m")
        # the assert starts at 0-based offset 4 → reported column 5
        assert [(d.line, d.col) for d in diags] == [(2, 5)]


class TestDiagnostic:
    def test_render_format(self):
        d = Diagnostic("a.py", 3, 7, "ARR001", "msg here")
        assert d.render() == "a.py:3:7: ARR001 msg here"

    def test_as_dict_roundtrip(self):
        d = Diagnostic("a.py", 3, 7, "ARR001", "msg")
        assert d.as_dict() == {
            "path": "a.py",
            "line": 3,
            "col": 7,
            "code": "ARR001",
            "message": "msg",
        }
