"""Service rule family: fixtures, goldens, and the self-clean gate."""

import dataclasses
import json
from pathlib import Path

from repro.analysis.engine import LintEngine, all_rules
from repro.analysis.reporters import as_json_payload, as_sarif_payload

FIXDIR = Path(__file__).parent / "service_fixtures"
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[2]

SERVICE_CODES = ("ASYNC001", "TIME001")


class TestRegistry:
    def test_every_issue_rule_is_registered(self):
        assert {r.code for r in all_rules("service")} == set(SERVICE_CODES)

    def test_service_rules_are_opt_in(self):
        assert not {r.code for r in LintEngine().rules} & set(SERVICE_CODES)

    def test_select_and_ignore_narrow_the_rule_set(self):
        assert [
            r.code for r in LintEngine(select=["ASYNC001"]).rules
        ] == ["ASYNC001"]
        narrowed = LintEngine(ignore=["TIME001"], families=("service",))
        assert {r.code for r in narrowed.rules} == (
            set(SERVICE_CODES) - {"TIME001"}
        )


class TestGoldenFixtures:
    def _normalized(self):
        diags = LintEngine(families=("service",)).lint_paths([FIXDIR])
        return sorted(
            dataclasses.replace(d, path=Path(d.path).name) for d in diags
        )

    def test_exact_code_counts(self):
        summary = {}
        for d in self._normalized():
            summary[d.code] = summary.get(d.code, 0) + 1
        assert summary == {"ASYNC001": 5, "TIME001": 3}

    def test_every_seeded_file_fires_only_its_rule(self):
        by_file = {}
        for d in self._normalized():
            by_file.setdefault(d.path, set()).add(d.code)
        assert by_file == {
            "async_block.py": {"ASYNC001"},
            "clock_mix.py": {"TIME001"},
        }

    def test_clean_modules_stay_clean(self):
        paths = {d.path for d in self._normalized()}
        assert "clean.py" not in paths

    def test_matches_golden_json(self):
        golden = json.loads(
            (GOLDEN / "service_fixtures.json").read_text()
        )
        assert as_json_payload(self._normalized()) == golden

    def test_matches_golden_sarif(self):
        golden = json.loads(
            (GOLDEN / "service_fixtures.sarif").read_text()
        )
        assert as_sarif_payload(self._normalized()) == golden

    def test_sarif_carries_rule_metadata_for_every_code(self):
        sarif = as_sarif_payload(self._normalized())
        rules = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == set(SERVICE_CODES)


class TestRealTree:
    def test_shipped_tree_is_clean(self):
        """Acceptance: zero service diagnostics on src+tests+benchmarks
        (the fixture packages deliberately seed findings and are
        excluded, exactly as CI runs the pass)."""
        diags = LintEngine(families=("service",)).lint_paths(
            [ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks"],
            exclude=["*/analysis/*fixtures/*"],
        )
        assert diags == []

    def test_suppressions_in_the_tree_are_justified(self):
        """Every in-tree service-rule suppression must carry prose
        after the code — a bare disable is not an argument."""
        import re

        pattern = re.compile(
            r"#\s*repro-lint:\s*disable(?:-file)?\s*=\s*"
            r"((?:ASYNC|TIME)\d+)\s*(.*)"
        )
        for py in (ROOT / "src" / "repro").rglob("*.py"):
            for i, line in enumerate(
                py.read_text(encoding="utf-8").splitlines(), 1
            ):
                m = pattern.search(line)
                if m:
                    assert m.group(2).strip(), (
                        f"{py}:{i}: suppression of {m.group(1)} "
                        "carries no justification"
                    )
