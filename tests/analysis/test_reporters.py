"""Reporter output contracts (human text, JSON schema v1, SARIF)."""

import json

from repro.analysis.engine import Diagnostic
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    as_json_payload,
    as_sarif_payload,
    format_human,
    format_json,
    format_sarif,
    format_statistics,
)

DIAGS = [
    Diagnostic("a.py", 1, 0, "LOOP001", "first"),
    Diagnostic("a.py", 9, 4, "ASSERT001", "second"),
    Diagnostic("b.py", 2, 0, "LOOP001", "third"),
]


class TestHumanReporter:
    def test_clean_message(self):
        assert format_human([]) == "repro-lint: no issues found"

    def test_lines_and_summary(self):
        out = format_human(DIAGS)
        lines = out.splitlines()
        assert lines[0] == "a.py:1:0: LOOP001 first"
        assert lines[-1] == "repro-lint: 3 issues (ASSERT001: 1, LOOP001: 2)"

    def test_singular_issue(self):
        out = format_human(DIAGS[:1])
        assert "1 issue (LOOP001: 1)" in out


class TestJsonReporter:
    def test_schema_keys(self):
        payload = as_json_payload(DIAGS)
        assert set(payload) == {"version", "count", "summary", "diagnostics"}
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["count"] == 3
        assert payload["summary"] == {"ASSERT001": 1, "LOOP001": 2}

    def test_diagnostic_entries(self):
        payload = as_json_payload(DIAGS)
        entry = payload["diagnostics"][0]
        assert set(entry) == {"path", "line", "col", "code", "message"}
        assert entry == {
            "path": "a.py",
            "line": 1,
            "col": 0,
            "code": "LOOP001",
            "message": "first",
        }

    def test_format_json_parses_back(self):
        assert json.loads(format_json(DIAGS)) == as_json_payload(DIAGS)

    def test_empty_payload(self):
        payload = as_json_payload([])
        assert payload["count"] == 0
        assert payload["summary"] == {}
        assert payload["diagnostics"] == []


class TestStatistics:
    def test_per_code_counts_and_total(self):
        lines = format_statistics(DIAGS).splitlines()
        assert lines[0].split()[:2] == ["1", "ASSERT001"]
        assert lines[1].split()[:2] == ["2", "LOOP001"]
        assert lines[-1].split() == ["3", "total"]

    def test_known_codes_carry_descriptions(self):
        out = format_statistics(DIAGS)
        assert "xadj/adjncy" in out  # LOOP001's description


class TestSarifReporter:
    def test_log_shape(self):
        log = as_sarif_payload(DIAGS)
        assert log["version"] == SARIF_VERSION
        assert "sarif-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 3

    def test_result_locations_are_one_based(self):
        log = as_sarif_payload(
            [Diagnostic("pkg/mod.py", 7, 3, "LOOP001", "msg")]
        )
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "LOOP001"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 7, "startColumn": 3}
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]["uri"]
        assert uri == "pkg/mod.py"

    def test_rules_metadata_covers_present_codes(self):
        log = as_sarif_payload(DIAGS)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["ASSERT001", "LOOP001"]
        assert all("shortDescription" in r for r in rules)

    def test_e999_gets_fallback_metadata(self):
        log = as_sarif_payload(
            [Diagnostic("x.py", 1, 1, "E999", "syntax error: bad")]
        )
        (rule,) = log["runs"][0]["tool"]["driver"]["rules"]
        assert rule["id"] == "E999"
        assert rule["name"] == "syntax-error"

    def test_format_sarif_parses_back(self):
        assert json.loads(format_sarif(DIAGS)) == as_sarif_payload(DIAGS)

    def test_empty_run_is_valid(self):
        log = as_sarif_payload([])
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []
