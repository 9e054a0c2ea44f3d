"""The mutation each admitted lint code earned its place with.

``docs/STATIC_ANALYSIS.md`` ("The admission test") keeps a code only if
a one-hunk defect seeded into ``src/repro`` itself makes it fire while
no tier-1 test and no other code notices.  Each case below replays that
edit on a copy of the real module(s): the code must fire on the mutated
line and stay silent on the unmutated copy.  When the anchored source
text moves, re-anchor the case — do not delete it.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import LintEngine

SRC = Path(__file__).resolve().parents[2] / "src"

# code, files copied (the first one is mutated), anchor, replacement
CASES = [
    pytest.param(
        "ASSERT001",
        ("repro/core/weights.py",),
        "        if len(search_work) != n:\n"
        "            raise ValueError(\"search_work must have one entry per node\")\n",
        "        assert len(search_work) == n, "
        "\"search_work must have one entry per node\"\n",
        id="ASSERT001-search-work-length-check-as-a-bare-assert",
    ),
    pytest.param(
        "LOOP001",
        ("repro/graph/metrics.py",),
        "    cut = part[graph.row_index] != part[graph.adjncy]\n"
        "    return int(graph.adjwgt[cut].sum() // 2)\n",
        "    cut = 0\n"
        "    for u in range(graph.num_vertices):\n"
        "        for idx in range(graph.xadj[u], graph.xadj[u + 1]):\n"
        "            if part[u] != part[graph.adjncy[idx]]:\n"
        "                cut += int(graph.adjwgt[idx])\n"
        "    return cut // 2\n",
        id="LOOP001-edge-cut-as-a-csr-loop",
    ),
    pytest.param(
        "PERF005",
        ("repro/sim/erosion.py",),
        "    falloff = np.exp(-np.maximum(0.0, dist - channel_radius)"
        " / max(decay, 1e-12))\n",
        "    import math\n"
        "\n"
        "    falloff = np.empty(len(dist), dtype=np.float64)\n"
        "    for i in range(len(dist)):\n"
        "        falloff[i] = math.exp(\n"
        "            -max(0.0, dist[i] - channel_radius) / max(decay, 1e-12)\n"
        "        )\n",
        id="PERF005-crater-falloff-as-a-math-exp-loop",
    ),
    pytest.param(
        "TIME001",
        ("repro/runtime/backends/supervised.py",),
        "            None if timeout is None else time.monotonic() + timeout\n"
        "        )\n"
        "        replies: List[Tuple[str, Any]] = []\n"
        "        for peer in waiting:\n"
        "            remaining = (\n"
        "                None if deadline is None\n"
        "                else max(0.0, deadline - time.monotonic())\n",
        "            None if timeout is None else time.time() + timeout\n"
        "        )\n"
        "        replies: List[Tuple[str, Any]] = []\n"
        "        for peer in waiting:\n"
        "            remaining = (\n"
        "                None if deadline is None\n"
        "                else max(0.0, deadline - time.time())\n",
        id="TIME001-superstep-deadline-on-the-wall-clock",
    ),
]


def _copy(root, files, anchor=None, replacement=None):
    """Copy ``files`` under ``root`` at their package-relative paths,
    mutating the first when an anchor is given; returns the lines the
    replacement occupies."""
    span = range(0)
    for i, rel in enumerate(files):
        text = (SRC / rel).read_text()
        if i == 0 and anchor is not None:
            assert text.count(anchor) == 1, f"anchor moved in {rel}"
            start = text[: text.index(anchor)].count("\n") + 1
            span = range(start, start + replacement.count("\n") + 1)
            text = text.replace(anchor, replacement)
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return span


@pytest.mark.parametrize("code, files, anchor, replacement", CASES)
def test_code_fires_on_its_seeded_defect_and_no_other_code_does(
    tmp_path, code, files, anchor, replacement
):
    clean, mutated = tmp_path / "clean", tmp_path / "mutated"
    _copy(clean, files)
    span = _copy(mutated, files, anchor, replacement)
    only = LintEngine(select=[code])
    assert only.lint_paths([clean]) == []
    found = only.lint_paths([mutated])
    assert found, f"{code} no longer sees its seeded defect"
    for d in found:
        assert Path(d.path).name == Path(files[0]).name
        assert d.line in span
    # every rule at once: what the edit adds is this code's alone
    every = LintEngine()
    before = {(d.code, d.message) for d in every.lint_paths([clean])}
    after = {(d.code, d.message) for d in every.lint_paths([mutated])}
    assert {c for c, _ in after - before} == {code}
