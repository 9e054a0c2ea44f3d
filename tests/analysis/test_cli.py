"""repro-lint CLI behaviour, including the self-clean meta-test."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main as lint_main
from repro.cli import main as contact_main

FIXTURES = Path(__file__).parent / "fixtures"
PERF_FIXTURES = Path(__file__).parent / "perf_fixtures"
SERVICE_FIXTURES = Path(__file__).parent / "service_fixtures"
LIBRARY = Path(repro.__file__).parent

SERVICE_CODES = ("ASYNC001", "TIME001")


class TestExitCodes:
    def test_violations_exit_nonzero(self, capsys):
        assert lint_main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "ARR001" in out and "VAL001" in out

    def test_clean_file_exits_zero(self, capsys):
        clean = FIXTURES / "repro" / "clean_ok.py"
        assert lint_main([str(clean)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--select", "NOPE999", str(FIXTURES)]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert lint_main([str(FIXTURES / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_two_files_for_one_module_exit_two(self, tmp_path, capsys):
        """A project rule must not silently analyse only the last of
        two files that claim one module name."""
        for root in ("a", "b"):
            pkg = tmp_path / root / "repro" / "service"
            pkg.mkdir(parents=True)
            (pkg / "app.py").write_text("x = 1\n")
        assert lint_main(["--service", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "repro.service.app" in err
        assert str(tmp_path / "a" / "repro" / "service" / "app.py") in err
        assert str(tmp_path / "b" / "repro" / "service" / "app.py") in err
        # file rules never consult the index, so a plain run still works
        assert lint_main([str(tmp_path)]) == 0


class TestOptions:
    def test_select_narrows_output(self, capsys):
        assert lint_main(["--select", "VAL001", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "VAL001" in out and "ARR001" not in out

    def test_ignore_drops_rule(self, capsys):
        lint_main(["--ignore", "VAL001", str(FIXTURES)])
        assert "VAL001" not in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert lint_main(["--format", "json", str(FIXTURES)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == payload["summary"]["ARR001"] + sum(
            n for c, n in payload["summary"].items() if c != "ARR001"
        )
        assert {d["code"] for d in payload["diagnostics"]} == set(
            payload["summary"]
        )

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("ARR001", "ASSERT001", "VAL001", "LOOP001"):
            assert code in out

    def test_list_rules_matches_the_documented_catalogue(self, capsys):
        import re

        lint_main(["--list-rules"])
        listed = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
        }
        doc = Path(__file__).resolve().parents[2] / "docs"
        documented = set(
            re.findall(
                r"^### ([A-Z]+\d{3}) — ",
                (doc / "STATIC_ANALYSIS.md").read_text(),
                flags=re.M,
            )
        )
        assert listed == documented

    def test_sarif_format(self, capsys):
        assert lint_main(["--format", "sarif", str(FIXTURES)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"]

    def test_statistics_appended(self, capsys):
        assert lint_main(["--statistics", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "total" in out.splitlines()[-1]

    def test_exclude_pattern(self, capsys):
        code = lint_main(
            [str(FIXTURES), "--exclude", "*/fixtures/*"]
        )
        assert code == 0
        assert "no issues found" in capsys.readouterr().out

    def test_spmd_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--spmd", str(LIBRARY)])
        assert exc.value.code == 2
        assert "--spmd" in capsys.readouterr().err


class TestPerfFlag:
    def test_perf_flag_finds_seeded_violations(self, capsys):
        assert lint_main(["--perf", str(PERF_FIXTURES)]) == 1
        out = capsys.readouterr().out
        for code in ("PERF001", "PERF002", "PERF003", "PERF005"):
            assert code in out

    def test_without_flag_fixtures_are_clean(self, capsys):
        # PERF rules are opt-in; the default engine must not fire
        assert lint_main([str(PERF_FIXTURES)]) == 0

    def test_list_rules_includes_perf_family(self, capsys):
        lint_main(["--list-rules"])
        out = capsys.readouterr().out
        for code in ("PERF001", "PERF002", "PERF003", "PERF005"):
            assert code in out

    def test_kernel_audit_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--kernel-audit", "audit.json", str(PERF_FIXTURES)])
        assert exc.value.code == 2
        assert "--kernel-audit" in capsys.readouterr().err

    def test_perf_library_lints_clean_modulo_baseline(self, capsys):
        """Acceptance: `repro-lint --perf --baseline lint-baseline.json
        src/repro` exits 0 on the shipped tree (from the repo root, as
        CI runs it — the baseline stores repo-relative paths)."""
        import os

        root = Path(__file__).resolve().parents[2]
        cwd = os.getcwd()
        os.chdir(root)
        try:
            code = lint_main([
                "--perf", "--baseline", "lint-baseline.json", "src/repro",
            ])
        finally:
            os.chdir(cwd)
        captured = capsys.readouterr()
        assert code == 0
        assert "suppressed" in captured.err
        assert "no issues found" in captured.out


class TestServiceFlag:
    def test_service_flag_finds_seeded_violations(self, capsys):
        assert lint_main(["--service", str(SERVICE_FIXTURES)]) == 1
        out = capsys.readouterr().out
        for code in SERVICE_CODES:
            assert code in out

    def test_without_flag_fixtures_are_clean(self, capsys):
        # the service family is opt-in and project-level; the per-file
        # engine alone must not fire on the fixture tree
        assert lint_main([str(SERVICE_FIXTURES)]) == 0

    def test_service_select_narrows(self, capsys):
        assert (
            lint_main(
                ["--service", "--select", "TIME001",
                 str(SERVICE_FIXTURES)]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "TIME001" in out and "ASYNC001" not in out

    def test_service_unknown_code_exits_two(self, capsys):
        assert lint_main(
            ["--service", "--select", "NOPE999", str(SERVICE_FIXTURES)]
        ) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_deleted_codes_exit_two(self, capsys):
        for code in ("SM001", "ASYNC002", "SPMD001"):
            assert lint_main(
                ["--service", "--select", code, str(SERVICE_FIXTURES)]
            ) == 2
            assert code in capsys.readouterr().err

    def test_service_respects_exclude(self, capsys):
        code = lint_main(
            ["--service", str(SERVICE_FIXTURES),
             "--exclude", "*/service_fixtures/*"]
        )
        assert code == 0
        assert "no issues found" in capsys.readouterr().out

    def test_list_rules_includes_service_family(self, capsys):
        lint_main(["--list-rules"])
        out = capsys.readouterr().out
        for code in SERVICE_CODES:
            assert code in out

    def test_service_sarif_has_rule_metadata(self, capsys):
        assert lint_main(
            ["--format", "sarif", "--service", str(SERVICE_FIXTURES)]
        ) == 1
        log = json.loads(capsys.readouterr().out)
        rules = {
            r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]
        }
        assert set(SERVICE_CODES) <= rules

    def test_service_library_lints_clean(self, capsys):
        """Acceptance: `repro-lint --service src/repro` must exit 0."""
        assert lint_main(["--service", str(LIBRARY)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_suppression_grammar_covers_service_codes(self, tmp_path, capsys):
        src = (
            "import time\n\n\n"
            "async def handler():\n"
            "    time.sleep(1)  # repro-lint: disable=ASYNC001 warm-up\n"
            "    deadline = time.time() + 5  # repro-lint: disable=TIME001 test double\n"
            "    return deadline\n"
        )
        target = tmp_path / "suppressed.py"
        target.write_text(src)
        assert lint_main(["--service", str(target)]) == 0
        assert "no issues found" in capsys.readouterr().out


class TestBaselineFlags:
    def test_write_then_apply_round_trip(self, tmp_path, capsys):
        base = tmp_path / "baseline.json"
        assert lint_main(
            ["--perf", "--write-baseline", str(base), str(PERF_FIXTURES)]
        ) == 0
        capsys.readouterr()
        # every PERF finding is suppressed
        assert lint_main(
            ["--perf", "--baseline", str(base), str(PERF_FIXTURES)]
        ) == 0
        captured = capsys.readouterr()
        assert "suppressed" in captured.err
        assert "PERF" not in captured.out

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert lint_main(
            ["--baseline", str(bad), str(PERF_FIXTURES)]
        ) == 2
        assert "baseline" in capsys.readouterr().err.lower()


class TestTraceRanking:
    def _make_trace(self, tmp_path):
        from repro.obs.report import RunReport
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with tracer.span("partition"):
            with tracer.span("refine"):
                pass
        report = RunReport.from_run(tracer)
        path = tmp_path / "trace.json"
        report.save(path)
        return path

    def test_trace_json_annotates_hot_findings(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path)
        code = lint_main([
            "--perf", "--select", "PERF002",
            "--trace-json", str(trace), str(PERF_FIXTURES),
        ])
        assert code == 1
        # loop_alloc.py lives in repro.partition — covered by the
        # refine span hint, so its findings carry hot markers
        assert "[hot: " in capsys.readouterr().out

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert lint_main([
            "--perf", "--trace-json", str(tmp_path / "nope.json"),
            str(PERF_FIXTURES),
        ]) == 2
        assert "trace" in capsys.readouterr().err.lower()


class TestMetaSelfClean:
    def test_library_lints_clean(self, capsys):
        """`repro-lint src/repro` must exit 0 on the shipped tree."""
        assert lint_main([str(LIBRARY)]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_default_path_is_the_library(self, capsys):
        assert lint_main([]) == 0
        assert "no issues found" in capsys.readouterr().out


class TestContactCliIntegration:
    def test_lint_subcommand(self, capsys):
        assert contact_main(["lint"]) == 0
        assert "no issues found" in capsys.readouterr().out

    def test_lint_subcommand_forwards_options(self, capsys):
        assert contact_main(["lint", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_lint_subcommand_on_fixtures(self, capsys):
        assert contact_main(["lint", str(FIXTURES)]) == 1
        assert "ASSERT001" in capsys.readouterr().out
