"""TIME001's service fixture tree and its goldens, and the self-clean
gate (the unit cases are in ``test_asynccheck.py``).

TIME001 is an ordinary rule that reads one module at a time; its
fixture tree mimics ``repro/service`` because the service is where
deadline arithmetic first lived.
"""

import dataclasses
import json
from pathlib import Path

from repro.analysis.engine import LintEngine, get_rule
from repro.analysis.reporters import as_json_payload, as_sarif_payload

FIXDIR = Path(__file__).parent / "service_fixtures"
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[2]

SERVICE_CODES = ("TIME001",)


class TestRegistry:
    def test_every_issue_rule_is_registered(self):
        assert get_rule("TIME001").code == "TIME001"
        assert "TIME001" in {r.code for r in LintEngine().rules}

    def test_select_and_ignore_narrow_the_rule_set(self):
        assert [
            r.code for r in LintEngine(select=["TIME001"]).rules
        ] == ["TIME001"]
        narrowed = LintEngine(ignore=["TIME001"])
        assert "TIME001" not in {r.code for r in narrowed.rules}


class TestGoldenFixtures:
    def _normalized(self):
        diags = LintEngine().lint_paths([FIXDIR])
        return sorted(
            dataclasses.replace(d, path=Path(d.path).name) for d in diags
        )

    def test_exact_code_counts(self):
        summary = {}
        for d in self._normalized():
            summary[d.code] = summary.get(d.code, 0) + 1
        assert summary == {"TIME001": 3}

    def test_every_seeded_file_fires_only_its_rule(self):
        by_file = {}
        for d in self._normalized():
            by_file.setdefault(d.path, set()).add(d.code)
        assert by_file == {"clock_mix.py": {"TIME001"}}

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
        """Acceptance: zero diagnostics on src+tests+benchmarks (the
        fixture packages deliberately seed findings and are excluded,
        exactly as CI runs the gate)."""
        diags = LintEngine().lint_paths(
            [ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks"],
            exclude=["*/analysis/*fixtures/*"],
        )
        assert diags == []

    def test_suppressions_in_the_tree_are_justified(self):
        """Every in-tree TIME001 suppression must carry prose after
        the code — a bare disable is not an argument."""
        import re

        pattern = re.compile(
            r"#\s*repro-lint:\s*disable(?:-file)?\s*=\s*"
            r"(TIME\d+)\s*(.*)"
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
