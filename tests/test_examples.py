"""Smoke tests for the example scripts.

Each example must at least compile; the cheap ones also run end-to-end
with their default configuration (heavier ones are exercised through
the library calls they are built from, which the rest of the suite
covers).
"""

import pathlib
import py_compile
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_examples_present():
    names = {p.name for p in EXAMPLES}
    assert {
        "quickstart.py",
        "crash_box.py",
        "partitioner_tour.py",
        "figure1_descriptors.py",
        "full_contact_step.py",
    } <= names


def test_figure1_example_runs(capsys, tmp_path, monkeypatch):
    """The cheapest example runs in-process end to end (in a temp
    directory: it writes SVG files to the cwd)."""
    monkeypatch.chdir(tmp_path)
    path = [p for p in EXAMPLES if p.name == "figure1_descriptors.py"][0]
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "Figure 1(b)" in out
    assert "Figure 2" in out
    assert (tmp_path / "figure1.svg").exists()
    assert (tmp_path / "figure2.svg").exists()


def test_example_mesh_loads_with_contact_surface():
    """The committed trace-demo mesh stays loadable and traceable."""
    from repro.mesh.io import load_mesh
    from repro.sim.sequence import extract_contact_surface

    path = EXAMPLES[0].parent / "impact_small.npz"
    mesh = load_mesh(path)
    assert mesh.num_nodes > 0 and mesh.num_elements > 0
    assert set(mesh.body_id.tolist()) == {0, 1}
    faces, owner, cnodes = extract_contact_surface(
        mesh, capture_radius=float("inf")
    )
    assert len(faces) > 0 and len(cnodes) > 0


def test_quickstart_example_runs(capsys):
    path = [p for p in EXAMPLES if p.name == "quickstart.py"][0]
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "NRemote" in out
    assert "descriptor overlap volume" in out
