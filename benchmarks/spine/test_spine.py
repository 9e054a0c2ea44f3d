"""The benchmark's own tests (``pytest benchmarks/spine``; outside
tier-1's ``testpaths``).  One ``--quick`` run feeds most of them."""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPINE = ROOT / "benchmarks" / "spine"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.spine.compare import compare  # noqa: E402
from benchmarks.spine.results import Metrics  # noqa: E402
from benchmarks.spine.spans import SpanRecorder  # noqa: E402
from benchmarks.spine.speed import REFERENCE_MS, SpeedReference  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """``python -m benchmarks.spine run --quick``: the result document,
    the captured output and the wall time."""
    out = tmp_path_factory.mktemp("spine") / "result.json"
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.spine", "run", "--quick",
         "--out", str(out)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout, time.time() - t0


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/spine"]
    assert 2 <= len(WORKLOADS) <= 8
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = WORKLOADS + [
        m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(names) == len(set(names))
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in DECLARED["end_to_end"]
    )
    runs = 4 + 22 * len(WORKLOADS)
    assert isinstance(DECLARED["run_seconds"], int)
    assert runs * DECLARED["run_seconds"] < 3420


def test_quick_run_prints_exactly_the_declared_names(quick):
    document, stdout, _ = quick
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert list(document["workloads"]) == WORKLOADS
    for workload in WORKLOADS:
        got = document["workloads"][workload]["end_to_end"]
        assert {n: m["unit"] for n, m in got.items()} == end_to_end
        assert all(m["value"] != 0 for m in got.values()), workload
    got = document["per_layer"]
    assert {n: m["unit"] for n, m in got.items()} == per_layer
    # and on standard output: a row per metric, then the contract line
    lines = [ln for ln in stdout.splitlines() if ln.startswith('{"correct"')]
    assert len(lines) == len(WORKLOADS) + 1
    for line, want in zip(lines, [end_to_end] * len(WORKLOADS) + [per_layer]):
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] > 0
        assert {
            n: m["unit"] for n, m in result["metrics"].items()
        } == want
        assert all(set(m) == {"value", "unit"}
                   for m in result["metrics"].values())
    for name in list(end_to_end) + list(per_layer):
        assert re.search(rf"^  {re.escape(name)} ", stdout, re.M), name


def test_quick_run_checks_pass_and_it_is_quick(quick):
    document, _, wall = quick
    assert wall < 60
    for workload in WORKLOADS:
        entry = document["workloads"][workload]
        assert entry["checks"] and all(entry["checks"].values()), workload
        assert entry["ops_failed"] == 0 < entry["ops_attempted"]
    assert all(document["per_layer_checks"].values())
    assert document["workloads"]["steps_paper"]["diagnostics"][
        "candidates_total"] > 0
    assert document["per_layer"]["core.fit_unattributed_pct"]["value"] <= 15
    assert document["per_layer"]["core.step_unattributed_pct"]["value"] <= 15
    for workload in WORKLOADS:
        assert 0.3 < document["workloads"][workload]["diagnostics"][
            "speed_factor"] < 3
    env = document["env"]
    assert {"git_commit", "python", "numpy", "scipy", "cpu_count",
            "numba_available", "kernel_tier", "backend"} <= set(env)


def test_trace_file_self_times_sum_to_their_parent(quick):
    trace = json.loads((SPINE / "out" / "trace-fit_paper.json").read_text())
    spans = trace["spans"]
    assert {s["workload"] for s in spans} == {"fit_paper"}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    assert children
    for parent_id, kids in children.items():
        parent = spans[parent_id]
        covered = sum(k["end"] - k["start"] for k in kids)
        assert parent["self_s"] + covered == pytest.approx(
            parent["end"] - parent["start"], abs=1e-9
        )
        assert all(parent["start"] <= k["start"] and k["end"] <= parent["end"]
                   for k in kids)


def test_span_recorder_nests_and_subtracts_children():
    rec = SpanRecorder("w")
    with rec.span("outer"):
        with rec.span("a"):
            time.sleep(0.002)
        _, seconds = rec.call("b", time.sleep, 0.002)
    outer, a, b = rec.spans
    assert (a["parent"], b["parent"], outer["parent"]) == (0, 0, None)
    assert seconds == b["end"] - b["start"]
    self_times = rec.self_times()
    assert self_times[0] == pytest.approx(
        (outer["end"] - outer["start"]) - (a["end"] - a["start"]) - seconds
    )
    assert 0 <= rec.unattributed_pct("outer") < 100


def test_times_are_scaled_to_the_reference_speed_and_counts_are_not():
    speed = SpeedReference()
    speed.tick()
    speed.tick()  # not due again within a second
    assert len(speed.samples) == 4
    assert speed.factor() == pytest.approx(REFERENCE_MS / speed.median_ms())
    metrics = Metrics()
    metrics.samples("t_ms", "ms", [0.001, 0.003], scale=1e3)
    metrics.value("cut", "count", 7)
    metrics.scale_times(2.0)
    assert metrics.values["t_ms"]["value"] == pytest.approx(4.0)
    assert metrics.values["t_ms"]["n"] == 2
    assert metrics.values["cut"]["value"] == 7


def test_compare_with_itself_is_all_ok(quick, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(quick[0]))
    assert compare(str(path), str(path)) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    # fit_paper's partition_s, op_ms_p50 and edge_cut also have a row
    # for each k
    assert len(rows) == len(WORKLOADS) * len(DECLARED["end_to_end"]) + 6
    assert all(row.startswith("ok") for row in rows)


def test_compare_reports_a_doctored_fit_as_worse(quick, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    bound = next(m["bound"] for m in DECLARED["end_to_end"]
                 if m["name"] == "partition_s")
    doctored = copy.deepcopy(quick[0])
    doctored["workloads"]["fit_paper"]["end_to_end"]["partition_s"][
        "value"] *= 1.05 + bound
    a.write_text(json.dumps(quick[0]))
    b.write_text(json.dumps(doctored))
    assert compare(str(a), str(b)) == 1
    rows = capsys.readouterr().out.splitlines()[1:-1]
    worse = [row for row in rows if row.startswith("worse")]
    assert len(worse) == 1
    assert "partition_s" in worse[0] and "fit_paper" in worse[0]


def test_compare_gates_each_k_of_a_fit_not_only_their_mean(
    quick, tmp_path, capsys
):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    bound = next(m["bound"] for m in DECLARED["end_to_end"]
                 if m["name"] == "edge_cut")
    doctored = copy.deepcopy(quick[0])
    cut = doctored["workloads"]["fit_paper"]["end_to_end"]["edge_cut"]
    assert set(cut["parts"]) == {"k8", "k25"}
    # k=8 worse by more than the bound, k=25 better by as many edges
    moved = (0.01 + bound) * cut["parts"]["k8"]
    cut["parts"]["k8"] += moved
    cut["parts"]["k25"] -= moved
    a.write_text(json.dumps(quick[0]))
    b.write_text(json.dumps(doctored))
    assert compare(str(a), str(b)) == 1
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[:3] for row in rows if not row.startswith("ok")] == [
        ["worse", "edge_cut[k8]", "fit_paper"]
    ]


def test_a_refused_job_is_a_failed_operation_not_a_traceback(monkeypatch):
    from benchmarks.spine import inputs, workloads

    real, calls = workloads.run_job, []

    def refuse_first_and_contact(client, **request):
        calls.append(request["kind"])
        if len(calls) == 1 or request["kind"] == "contact-step":
            return None, 0.001
        return real(client, **request)

    monkeypatch.setattr(workloads, "run_job", refuse_first_and_contact)
    out = workloads.service_mix(0, 1.0, inputs.QUICK, 0.0)
    # the first cold job once, the contact-step job in both passes
    assert out.failed == 3 and not out.correct
    assert out.checks["service: every HTTP job ended done"] is False
    assert out.metrics.values["pass_s"]["value"] > 0


def test_compare_calls_a_noisy_overlap_unresolved(quick, tmp_path, capsys):
    def side(path, factors):
        docs = []
        for f in factors:
            doc = copy.deepcopy(quick[0])
            doc["workloads"]["fit_paper"]["end_to_end"]["pass_s"]["value"] *= f
            docs.append(json.dumps(doc))
        path.write_text("\n".join(docs) + "\n")
        return str(path)

    a = side(tmp_path / "a.jsonl", [0.7, 1.0, 1.3, 1.6])
    b = side(tmp_path / "b.jsonl", [0.9, 1.3, 1.7, 2.0])
    assert compare(a, b) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[:3] for row in rows if not row.startswith("ok")] == [
        ["unresolved", "pass_s", "fit_paper"]
    ]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SPINE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "fit_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_run_waits_for_every_process_it_started_orphans_too():
    # in its own interpreter: pytest must not become a subreaper
    script = (
        "import os, subprocess, sys, time\n"
        "from benchmarks.spine import procs\n"
        "procs.adopt_orphans()\n"
        "orphan = int(subprocess.run(\n"
        "    ['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "    capture_output=True, text=True, stdin=subprocess.DEVNULL,\n"
        ").stdout.split()[0])\n"
        "assert orphan in procs.children(), 'the orphan was not adopted'\n"
        "t0 = time.monotonic()\n"
        "procs.stop_children(grace_s=0.2)\n"
        "assert not procs.children()\n"
        "assert not os.path.exists(f'/proc/{orphan}')\n"
        "assert time.monotonic() - t0 < 5\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
