"""The PERF rules: per-rule cases and golden output over the seeded
fixture package.

``perf_fixtures/`` mimics a ``repro/`` package root (the PERF rules
are scoped to the numeric modules); the JSON and SARIF renderings of
a plain run over it, every rule included, are pinned as golden files.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

from repro.analysis.engine import LintEngine, all_rules
from repro.analysis.perf import PerfRule
from repro.analysis.reporters import as_json_payload, as_sarif_payload

FIXDIR = Path(__file__).parent / "perf_fixtures"
GOLDEN = Path(__file__).parent / "golden"


def analyze(source, module="repro.core.m", path="m.py", **kwargs):
    engine = LintEngine(**kwargs)
    return engine.lint_source(
        textwrap.dedent(source), module=module, path=path
    )


def codes(source, **kwargs):
    return [d.code for d in analyze(source, **kwargs)]


class TestPERF001:
    def test_iterating_annotated_param(self):
        src = """
            import numpy as np
            def f(points: np.ndarray):
                for p in points:
                    yield p
        """
        assert codes(src) == ["PERF001"]

    def test_iterating_np_call_result(self):
        src = """
            import numpy as np
            def f(n):
                for v in np.arange(n, dtype=np.int64):
                    yield v
        """
        assert codes(src) == ["PERF001"]

    def test_range_len_spelling(self):
        src = """
            import numpy as np
            def f(points: np.ndarray):
                for i in range(len(points)):
                    yield points[i]
        """
        assert codes(src) == ["PERF001"]

    def test_plain_iterable_not_flagged(self):
        src = """
            def f(items):
                for x in items:
                    yield x
        """
        assert codes(src) == []

    def test_scoped_to_numeric_modules(self):
        src = """
            import numpy as np
            def f(points: np.ndarray):
                for p in points:
                    yield p
        """
        assert codes(src, module="repro.analysis.m") == []
        assert codes(src, module="tests.test_m") == []


class TestPERF002:
    def test_concatenate_in_loop(self):
        src = """
            import numpy as np
            def f(chunks):
                acc = np.empty(0, dtype=np.int64)
                for c in chunks:
                    acc = np.concatenate((acc, c))
                return acc
        """
        assert codes(src) == ["PERF002"]

    def test_list_grow_then_array(self):
        src = """
            import numpy as np
            def f(n):
                rows = []
                for i in range(n):
                    rows.append(i)
                return np.array(rows, dtype=np.int64)
        """
        assert codes(src) == ["PERF002"]

    def test_chunk_collect_concatenate_once_ok(self):
        src = """
            import numpy as np
            def f(chunks):
                out = []
                for c in chunks:
                    out.append(c * 2)
                return np.concatenate(out)
        """
        assert codes(src) == []


class TestPERF003:
    def test_three_lookups_fire(self):
        src = """
            def f(sess, work):
                for item in work:
                    sess.comm.send(item)
                    sess.comm.send(item)
                    sess.comm.send(item)
        """
        assert codes(src) == ["PERF003"]

    def test_two_lookups_are_idiom(self):
        src = """
            def f(sess, work):
                for item in work:
                    sess.comm.send(item)
                    sess.comm.send(item)
        """
        assert codes(src) == []

    def test_rebound_receiver_not_flagged(self):
        src = """
            def f(pool, work):
                for item in work:
                    w = pool.take()
                    w.push(item)
                    w.push(item)
                    w.push(item)
        """
        assert codes(src) == []

    def test_counted_once_in_outermost_loop(self):
        src = """
            def f(sess, grid):
                for row in grid:
                    for item in row:
                        sess.comm.send(item)
                        sess.comm.send(item)
                        sess.comm.send(item)
        """
        assert codes(src) == ["PERF003"]


class TestPERF005:
    def test_math_dotted_in_loop(self):
        src = """
            import math
            def f(values):
                out = 0.0
                for v in values:
                    out += math.sqrt(v)
                return out
        """
        assert codes(src) == ["PERF005"]

    def test_from_import_spelling(self):
        src = """
            from math import hypot
            def f(xs, ys):
                total = 0.0
                for x, y in zip(xs, ys):
                    total += hypot(x, y)
                return total
        """
        assert codes(src) == ["PERF005"]

    def test_math_outside_loop_ok(self):
        src = """
            import math
            def f(v):
                return math.sqrt(v)
        """
        assert codes(src) == []


class TestSelectIgnore:
    SRC = """
        import numpy as np
        def f(points: np.ndarray, chunks):
            for p in points:
                np.concatenate((p, p))
    """

    def test_select(self):
        assert codes(self.SRC, select=["PERF002"]) == ["PERF002"]

    def test_ignore(self):
        assert codes(self.SRC, ignore=["PERF002"]) == ["PERF001"]

    def test_rules_registered(self):
        perf = [r for r in all_rules() if isinstance(r, PerfRule)]
        assert [r.code for r in perf] == [
            "PERF001", "PERF002", "PERF003", "PERF005",
        ]
        # every run includes them: there is no opt-in rule set
        assert set(perf) <= set(LintEngine().rules)


class TestGoldenFixtures:
    def _normalized(self):
        diags = LintEngine().lint_paths([FIXDIR])
        return sorted(
            dataclasses.replace(d, path=Path(d.path).name) for d in diags
        )

    def test_exact_code_counts(self):
        summary = as_json_payload(self._normalized())["summary"]
        assert summary == {
            "PERF001": 4,
            "PERF002": 2,
            "PERF003": 1,
            "PERF005": 2,
        }

    def test_matches_golden_json(self):
        golden = json.loads((GOLDEN / "perf_fixtures.json").read_text())
        assert as_json_payload(self._normalized()) == golden

    def test_matches_golden_sarif(self):
        golden = json.loads((GOLDEN / "perf_fixtures.sarif").read_text())
        assert as_sarif_payload(self._normalized()) == golden

    def test_real_tree_is_clean(self):
        root = Path(__file__).resolve().parents[2]
        diags = LintEngine().lint_paths(
            [root / "src" / "repro"]
        )
        assert diags == []
