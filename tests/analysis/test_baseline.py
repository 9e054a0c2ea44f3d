"""The committed lint baseline: write/load/apply round trip, multiset
semantics, and schema rejection."""

import pytest

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import Diagnostic


def diag(path="src/repro/m.py", line=1, col=1, code="PERF001", message="m"):
    return Diagnostic(path=path, line=line, col=col, code=code,
                      message=message)


class TestRoundTrip:
    def test_write_then_apply_suppresses_everything(self, tmp_path):
        found = [diag(line=3), diag(line=9, code="PERF002", message="x")]
        path = tmp_path / "baseline.json"
        assert write_baseline(path, found) == 2
        kept, suppressed = apply_baseline(found, load_baseline(path))
        assert kept == [] and suppressed == 2

    def test_lines_do_not_matter(self, tmp_path):
        """Moving code around must not resurrect baselined findings."""
        path = tmp_path / "baseline.json"
        write_baseline(path, [diag(line=3, col=5)])
        moved = [diag(line=77, col=1)]
        kept, suppressed = apply_baseline(moved, load_baseline(path))
        assert kept == [] and suppressed == 1

    def test_hot_annotation_stripped_both_ways(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(
            path, [diag(message="m [hot: run/search self=1.0ms]")]
        )
        baseline = load_baseline(path)
        kept, suppressed = apply_baseline(
            [diag(message="m [hot: run/search self=99.9ms]")], baseline
        )
        assert kept == [] and suppressed == 1
        kept, _ = apply_baseline([diag(message="m")], baseline)
        assert kept == []

    def test_multiset_semantics(self, tmp_path):
        """Each entry absorbs one finding; a second new instance of the
        same (path, code, message) still fails."""
        path = tmp_path / "baseline.json"
        write_baseline(path, [diag()])
        kept, suppressed = apply_baseline(
            [diag(line=1), diag(line=2)], load_baseline(path)
        )
        assert suppressed == 1
        assert [d.line for d in kept] == [2]

    def test_new_findings_survive(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [diag()])
        new = diag(code="PERF005", message="fresh")
        kept, _ = apply_baseline([diag(), new], load_baseline(path))
        assert kept == [new]


class TestSchemaRejection:
    @pytest.mark.parametrize("payload, hint", [
        ("[]", "object"),
        ('{"schema": "v999", "entries": []}', "schema"),
        ('{"schema": "repro.lint-baseline/1"}', "entries"),
        ('{"schema": "repro.lint-baseline/1", "entries": [{}]}',
         "exactly"),
        ('{"schema": "repro.lint-baseline/1", "entries": '
         '[{"path": "", "code": "X", "message": "m"}]}', "non-empty"),
        ("not json", "JSON"),
    ])
    def test_malformed_rejected(self, tmp_path, payload, hint):
        path = tmp_path / "baseline.json"
        path.write_text(payload)
        with pytest.raises(BaselineError, match=hint):
            load_baseline(path)

    def test_written_files_are_sorted_and_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        ds = [diag(line=5, code="PERF002"), diag(line=1), diag(line=9)]
        write_baseline(a, ds)
        write_baseline(b, list(reversed(ds)))
        assert a.read_text() == b.read_text()
