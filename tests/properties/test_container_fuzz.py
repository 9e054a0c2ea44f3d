"""Every ``.npz`` container boundary fails closed and typed.

A saved disk-cache entry, checkpoint and mesh file is truncated, or
one of its bytes is changed. Reading it back must then return what was
written, or fail in the one typed way its reader promises: a cache
miss counted as ``disk_corrupt`` (the file removed), a
:class:`~repro.utils.schema.SchemaError` from :func:`load_driver`, or
a ``ValueError`` from :func:`load_mesh`. No other exception may
escape.
"""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import dump_driver_bytes, load_driver
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.mesh.generators import structured_box_mesh
from repro.mesh.io import load_mesh, save_mesh
from repro.partition.config import PartitionOptions
from repro.service.cache import ResultCache
from repro.utils.schema import SchemaError


def damaged(blob, data):
    """``blob`` cut short, or with one byte changed."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="n")]
    out = bytearray(blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    out[at] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(out)


@pytest.fixture(scope="module")
def cache_entry(small_sequence, tmp_path_factory):
    """``(dir, key, entry bytes, result)`` of one disk-cache entry."""
    result = MCMLDTPartitioner(4).fit(small_sequence[0])
    disk = str(tmp_path_factory.mktemp("cache"))
    ResultCache(disk_dir=disk).put("entry", result)
    with open(os.path.join(disk, "entry.npz"), "rb") as fh:
        return disk, "entry", fh.read(), result


@pytest.fixture(scope="module")
def checkpoint(small_sequence):
    """``(checkpoint bytes, partition vector)`` of an initialized
    driver."""
    driver = ContactStepDriver(
        4, MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))
    )
    driver.initialize(small_sequence[0])
    return dump_driver_bytes(driver), driver.partitioner.part.copy()


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    """``(path, file bytes, mesh)`` of a saved 3×3×3 box mesh."""
    mesh = structured_box_mesh(3, 3, 3)
    path = tmp_path_factory.mktemp("mesh") / "box.npz"
    save_mesh(path, mesh)
    return path, path.read_bytes(), mesh


FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(data=st.data())
def test_disk_cache_entry(cache_entry, data):
    disk, key, blob, written = cache_entry
    path = os.path.join(disk, f"{key}.npz")
    with open(path, "wb") as fh:
        fh.write(damaged(blob, data))
    cache = ResultCache(disk_dir=disk)
    hit = cache.get(key)
    if hit is None:
        assert cache.stats.disk_corrupt == 1
        assert not os.path.exists(path)
    else:
        assert np.array_equal(hit.labels, written.labels)
        assert hit.diagnostics.keys() == written.diagnostics.keys()
        for name, value in written.diagnostics.items():
            assert np.array_equal(hit.diagnostics[name], value), name


@FUZZ
@given(data=st.data())
def test_checkpoint(checkpoint, data):
    blob, part = checkpoint
    try:
        driver = load_driver(io.BytesIO(damaged(blob, data)), "serial")
    except SchemaError:
        return
    assert np.array_equal(driver.partitioner.part, part)


@FUZZ
@given(data=st.data())
def test_mesh_file(mesh_file, data):
    path, blob, mesh = mesh_file
    path.write_bytes(damaged(blob, data))
    try:
        loaded = load_mesh(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert np.array_equal(loaded.nodes, mesh.nodes)
    assert np.array_equal(loaded.elements, mesh.elements)
    assert loaded.elem_type == mesh.elem_type
    assert np.array_equal(loaded.body_id, mesh.body_id)
