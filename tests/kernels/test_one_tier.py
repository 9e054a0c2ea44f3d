"""There is one execution tier: the knobs that used to select another
either fail loudly (flags, keyword arguments, the module) or are inert
(the environment variable), and artefacts written while the tier
existed still load."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as contact_main
from repro.obs import RunReport, Tracer

from .test_conformance import KERNELS

REPO_ROOT = Path(__file__).resolve().parents[2]
#: `repro-contact trace --k 4 --trace-steps 1 --no-baseline` as the
#: last commit with a kernel tier wrote it (``kernels`` meta key and a
#: ``kernel_calls_pure`` root counter included)
OLD_REPORT = Path(__file__).parent / "data" / "run_report_pr20.json"


@pytest.mark.parametrize(
    "argv",
    [["--kernels", "pure", "trace"], ["trace", "--kernels", "pure"]],
    ids=["global", "subcommand"],
)
def test_kernels_flag_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        contact_main(argv)
    assert exc.value.code == 2
    # argparse's own message: "unrecognized arguments: --kernels pure"
    # after the subcommand, "invalid choice: 'pure'" before it
    assert capsys.readouterr().err.startswith("usage: repro-contact")


def _trace(tmp_path, name, **env):
    path = tmp_path / name
    inherited = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
    subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli",
            "trace", "--k", "8", "--trace-steps", "2",
            "--trace-json", str(path),
        ],
        cwd=tmp_path,
        env={**inherited, "PYTHONPATH": str(REPO_ROOT / "src"), **env},
        check=True,
        capture_output=True,
        timeout=120,
    )
    return RunReport.load(path)


def test_env_var_is_inert_and_reports_carry_no_tier(tmp_path):
    plain = _trace(tmp_path, "plain.json")
    with_env = _trace(tmp_path, "env.json", REPRO_KERNELS="compiled")
    assert with_env.to_dict()["comm"] == plain.to_dict()["comm"]
    assert [path for path, _ in with_env.spans.walk()] == [
        path for path, _ in plain.spans.walk()
    ]
    assert with_env.meta == plain.meta
    assert "kernels" not in plain.meta
    assert not [
        name
        for _, span in plain.spans.walk()
        for name in span.counters
        if name.startswith("kernel_")
    ]


def test_tracer_rejects_kernel_counters():
    with pytest.raises(TypeError):
        Tracer(kernel_counters=True)


def test_reports_written_with_a_tier_still_load_and_render():
    report = RunReport.load(OLD_REPORT)
    assert report.meta["kernels"] == "pure"
    rendered = report.render()
    assert "run: kernel_calls_pure=101" in rendered
    assert "kernels=pure" in rendered


def test_kernel_registry_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.kernels  # noqa: F401


@pytest.mark.parametrize(
    "fn", list(KERNELS.values()), ids=lambda fn: fn.__name__
)
def test_plain_functions_pickle_by_qualified_name(fn):
    assert pickle.loads(pickle.dumps(fn)) is fn
