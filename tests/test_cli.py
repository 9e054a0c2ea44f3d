"""Tests for the CLI entry point."""

import json
import re

import pytest

from repro.cli import main
from repro.mesh.generators import merge_meshes, structured_box_mesh
from repro.mesh.io import save_mesh
from repro.obs import RunReport, validate_report


@pytest.fixture(scope="module")
def tiny_mesh_path(tmp_path_factory):
    """A two-body mesh file small enough for fast trace runs."""
    path = tmp_path_factory.mktemp("meshes") / "tiny.npz"
    projectile = structured_box_mesh(
        2, 2, 3, origin=(0.6, 0.6, 1.02), size=(0.4, 0.4, 0.8)
    )
    plate = structured_box_mesh(
        6, 6, 2, origin=(0.0, 0.0, 0.0), size=(1.6, 1.6, 0.6)
    )
    save_mesh(path, merge_meshes([projectile, plate]))
    return str(path)


class TestCli:
    def test_stages(self, capsys):
        assert main(["--steps", "5", "--refine", "0.5", "stages"]) == 0
        out = capsys.readouterr().out
        assert "Simulation stages" in out
        assert "step 0" in out

    def test_table1(self, capsys):
        assert main(
            ["--steps", "3", "--refine", "0.5", "table1", "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2-way MCML+DT" in out
        assert "2-way ML+RCB" in out

    def test_ablation_update(self, capsys):
        assert main(
            [
                "--steps", "4", "--refine", "0.5",
                "ablation-update", "--k", "2", "--period", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: line.split()[1:]
            for line in out.splitlines()
            if line.startswith(("descriptor-only", "repartition", "hybrid"))
        }
        assert list(rows) == ["descriptor-only", "repartition", "hybrid"]
        # max imbalance: three decimals, or 1.05 and 1.12 both print 1.1
        for _, imbalance, moved in rows.values():
            assert re.fullmatch(r"\d+\.\d{3}", imbalance)
            assert moved.isdigit()
        assert rows["descriptor-only"][2] == "0"

    def test_figure1(self, capsys):
        assert main(
            ["--steps", "2", "--refine", "0.5", "figure1", "--k", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure-1 style" in out
        assert "Decision tree" in out

    def test_table1_prints_the_claims(self, capsys):
        assert main(
            ["--steps", "3", "--refine", "0.5", "table1", "--k", "2", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "FE-side total" in out and "w2 imb max" in out
        assert "§5.2 claims" in out
        assert "FE-side ratio ML+RCB / MCML+DT non-increasing" in out

    def test_scale_is_a_choice(self):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "huge"])

    @pytest.mark.parametrize(
        "command",
        [
            ["table1", "--k", "4"],
            ["ablation-update", "--k", "4", "--period", "2"],
            ["figure1", "--k", "4"],
        ],
        ids=lambda c: c[0],
    )
    def test_seed_reaches_the_partitioner(
        self, command, tmp_path, capsys
    ):
        """``--seed`` used to reach only ``trace``: every other command
        ran seed 0 while its run report recorded the seed asked for."""
        outputs = []
        path = tmp_path / "run.json"  # same path: same "trace written"
        for seed in (0, 1):
            assert main(
                ["--seed", str(seed), "--steps", "3", "--refine", "0.5",
                 *command, "--trace-json", str(path)]
            ) == 0
            outputs.append(capsys.readouterr().out)
            assert RunReport.load(path).meta["seed"] == seed
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["ablation-update", "--period", "0"], "--period"),
            (["table1", "--k", "0"], "--k"),
            (["ablation-update", "--k", "0"], "--k"),
            (["figure1", "--k", "0"], "--k"),
            (["--steps", "0", "stages"], "--steps"),
            (["figure1", "--snapshot", "-1"], "--snapshot"),
        ],
        ids=["period-0", "table1-k-0", "ablation-k-0", "figure1-k-0",
             "steps-0", "snapshot-negative"],
    )
    def test_bad_numbers_are_usage_errors(self, argv, option, capsys):
        """Out-of-range counts used to end in a ValueError traceback
        (and ``--snapshot -1`` silently drew the last snapshot)."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {option}: must be >= " in err
        assert "Traceback" not in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main(["--steps", "3"])


class TestTraceCommand:
    def test_trace_mesh_happy_path(self, tiny_mesh_path, capsys):
        assert main(["trace", tiny_mesh_path, "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "Trace spans" in out
        assert "coarsen" in out
        assert "dtree-induce" in out
        assert "map-transfer" in out

    def test_trace_synthetic_default(self, capsys):
        assert main(
            ["--refine", "0.5", "trace", "--k", "2",
             "--trace-steps", "1", "--no-baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "Trace spans" in out
        assert "simulate" in out

    def test_trace_json_file_created(self, tiny_mesh_path, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", tiny_mesh_path, "--k", "4",
             "--trace-json", str(out_path)]
        ) == 0
        document = json.loads(out_path.read_text())
        validate_report(document)
        report = RunReport.load(out_path)
        assert report.spans.find("mcml-dt/fit/partition/coarsen")
        assert report.spans.find("ml-rcb/map-transfer")
        assert report.meta["k"] == 4

    def test_trace_json_before_subcommand(self, tiny_mesh_path, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(
            ["--trace-json", str(out_path), "trace", tiny_mesh_path,
             "--k", "4", "--no-baseline"]
        ) == 0
        validate_report(json.loads(out_path.read_text()))

    def test_trace_unreadable_mesh_nonzero_exit(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.npz"
        assert main(["trace", str(missing), "--k", "4"]) == 2
        assert "cannot load mesh" in capsys.readouterr().err

    def test_trace_corrupt_mesh_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.npz"
        bad.write_bytes(b"not a numpy archive")
        assert main(["trace", str(bad), "--k", "4"]) == 2
        assert "cannot load mesh" in capsys.readouterr().err

    def test_trace_json_on_table1(self, tmp_path, capsys):
        out_path = tmp_path / "t1.json"
        assert main(
            ["--steps", "2", "--refine", "0.5", "table1",
             "--k", "2", "--trace-json", str(out_path)]
        ) == 0
        report = RunReport.load(out_path)
        assert report.spans.find("mcml-dt") is not None
        assert report.spans.find("ml-rcb/map-transfer") is not None
        assert "trace written" in capsys.readouterr().out


FAULTED = "process://?workers=2&faults=kill@0.0"


class TestFaultPlan:
    """A pool's ``faults=`` plan injects on the run's backend, named by
    ``--backend`` or by ``$REPRO_BACKEND``, and the run report records
    the spec that ran."""

    @staticmethod
    def _trace(tmp_path, *global_args):
        out_path = tmp_path / "trace.json"
        assert main(
            ["--refine", "0.5", *global_args, "trace", "--k", "4",
             "--trace-steps", "1", "--no-baseline",
             "--trace-json", str(out_path)]
        ) == 0
        return RunReport.load(out_path)

    @pytest.mark.parametrize("named_by", ["default", "process:2"])
    def test_plan_fires_on_the_named_backend(
        self, tmp_path, monkeypatch, named_by
    ):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        clean = self._trace(tmp_path, "--backend", "process:2")
        assert "faults_injected" not in clean.recovery_totals()
        if named_by == "default":
            monkeypatch.setenv("REPRO_BACKEND", FAULTED)
            faulty = self._trace(tmp_path)
        else:
            faulty = self._trace(tmp_path, "--backend", FAULTED)
        assert faulty.recovery_totals()["faults_injected"] == 1
        assert faulty.recovery_totals()["worker_deaths"] == 1
        assert faulty.meta["backend"] == FAULTED
        assert faulty.comm == clean.comm and clean.comm

    @pytest.mark.parametrize("backend", ["serial", "thread:2"])
    def test_plan_refuses_an_in_process_backend(self, capsys, backend):
        """Faults are injected into pool workers only: a plan on an
        in-process backend is a usage error, not a silent no-op."""
        name, _, workers = backend.partition(":")
        spec = f"{name}://?faults=kill@0.0" + (
            f"&workers={workers}" if workers else ""
        )
        code = main(
            ["--backend", spec, "trace", "--k", "4", "--trace-steps", "1"]
        )
        assert code == 2
        assert "does not accept option 'faults'" in capsys.readouterr().err

    def test_report_names_the_env_backend(self, tmp_path, monkeypatch):
        """With no ``--backend`` the run uses ``$REPRO_BACKEND`` and
        the report says so (it used to say ``serial``)."""
        monkeypatch.setenv("REPRO_BACKEND", "thread:2")
        assert self._trace(tmp_path).meta["backend"] == "thread:2"
        monkeypatch.delenv("REPRO_BACKEND")
        assert self._trace(tmp_path).meta["backend"] == "serial"

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--fault-plan", "kill@0.0"]]
    )
    def test_removed_flags_are_usage_errors(self, flag):
        """``--backend SPEC`` is the one backend flag."""
        for argv in ([*flag, "trace"], ["trace", *flag]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
