"""Every JSON document boundary fails closed and typed.

One value at a random path of a valid document — a run report, a job
request, a job record carrying its result, a checkpoint's meta and a
disk-cache entry's meta — is replaced by a random JSON value. The
document must then be accepted or refused with a
:class:`~repro.utils.schema.SchemaError`; no other exception may
escape. The checkpoint is read through :func:`load_driver` and the
cache entry through :meth:`ResultCache.get`, which turns a refused
entry into a counted miss and removes the file.
"""

import copy
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import dump_driver_bytes, load_driver
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams
from repro.obs import RunReport, Tracer, validate_report
from repro.partition.config import PartitionOptions
from repro.runtime.ledger import CommLedger
from repro.service.cache import ResultCache
from repro.service.schemas import (
    SCHEMA_VERSION,
    validate_job_record,
    validate_job_request,
)
from repro.utils.schema import SchemaError

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def value_paths(value, prefix=()):
    """The path of ``value`` and of every value inside it."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from value_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from value_paths(item, prefix + (i,))


def replaced(document, path, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return out


def report_document():
    tracer = Tracer()
    with tracer.span("fit"):
        with tracer.span("partition"):
            tracer.count("trials", 4)
    ledger = CommLedger()
    ledger.record("contact-exchange", 0, 1, 12)
    return RunReport.from_run(tracer, ledger, k=4, seed=0).to_dict()


def request_document():
    return {
        "schema": SCHEMA_VERSION,
        "kind": "contact-step",
        "k": 4,
        "partitioner": "mcml-dt",
        "config": {"pad": 0.1, "seed": 3},
        "source": {"kind": "impact", "n_steps": 3, "refine": 0.5},
        "steps": 2,
        "client": "fuzz",
        "deadline_s": 5.0,
        "cache": True,
    }


def record_document():
    request = validate_job_request(
        dict(request_document(), kind="partition", steps=1)
    )
    return {
        "schema": SCHEMA_VERSION, "id": "job-000001", "state": "done",
        "kind": "partition", "client": "fuzz", "cache": "hit",
        "coalesced": False, "error": None,
        "submitted_s": 1.0, "started_s": 1.0, "finished_s": 1.5,
        "request": request,
        "result": {
            "schema": SCHEMA_VERSION, "id": "job-000001",
            "kind": "partition", "method": "mcml-dt", "k": 4,
            "cache": "hit", "content_key": "ab" * 32,
            "labels": [0, 1, 2, 3],
            "diagnostics": {"edge_cut_final": 12, "imbalance": [1.0, 1.02]},
        },
    }


@pytest.fixture(scope="module")
def checkpoint(small_sequence):
    """Checkpoint bytes of an initialized driver: ``(meta, part)``."""
    driver = ContactStepDriver(
        4, MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))
    )
    driver.initialize(small_sequence[0])
    with np.load(io.BytesIO(dump_driver_bytes(driver))) as data:
        return json.loads(str(data["meta"])), data["part"]


@pytest.fixture(scope="module")
def cache_entry(small_sequence, tmp_path_factory):
    """A disk-cache directory holding one entry: ``(dir, key, meta,
    arrays)``."""
    from repro.core.mcml_dt import MCMLDTPartitioner

    result = MCMLDTPartitioner(4).fit(small_sequence[0])
    disk = str(tmp_path_factory.mktemp("cache"))
    ResultCache(disk_dir=disk).put("entry", result)
    with np.load(f"{disk}/entry.npz", allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    return disk, "entry", meta, arrays


def fuzz(document, check, data):
    path = data.draw(st.sampled_from(list(value_paths(document))))
    try:
        check(replaced(document, path, data.draw(json_values)))
    except SchemaError:
        pass


FUZZ = settings(max_examples=120, deadline=None)


@FUZZ
@given(data=st.data())
def test_run_report(data):
    fuzz(report_document(), validate_report, data)


@FUZZ
@given(data=st.data())
def test_job_request(data):
    fuzz(request_document(), validate_job_request, data)


@FUZZ
@given(data=st.data())
def test_job_record_with_result(data):
    fuzz(record_document(), validate_job_record, data)


@FUZZ
@given(data=st.data())
def test_checkpoint_meta(checkpoint, data):
    meta, part = checkpoint

    def load(document):
        blob = io.BytesIO()
        np.savez_compressed(
            blob, part=part, meta=np.array(json.dumps(document))
        )
        blob.seek(0)
        load_driver(blob, backend="serial")

    fuzz(meta, load, data)


@FUZZ
@given(data=st.data())
def test_disk_cache_meta(cache_entry, data):
    disk, key, meta, arrays = cache_entry

    def get(document):
        path = f"{disk}/{key}.npz"
        np.savez_compressed(
            path, meta=np.array(json.dumps(document)), **arrays
        )
        cache = ResultCache(disk_dir=disk)
        if cache.get(key) is None:
            # refused: counted, and the file is gone
            assert cache.stats.disk_corrupt == 1
            assert not os.path.exists(path)

    fuzz(meta, get, data)
