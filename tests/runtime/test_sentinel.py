"""Dynamic validation of the SPMD001 findings via the race sentinel.

Every statically seeded SPMD001 violation in
``tests/analysis/spmd_fixtures/rank_race.py`` must reproduce a
:class:`SharedStateMutationError` when executed on the sentinel
backend, and every clean site must pass — static findings match
dynamic reality.
"""

import numpy as np
import pytest

from repro.runtime.backends import (
    BACKEND_NAMES,
    SentinelBackend,
    SharedStateMutationError,
    build_backend,
)
from repro.runtime.backends.sentinel import _fingerprint, _function_roots
from repro.runtime.backends.thread import ThreadSession
from repro.runtime.backends.sentinel import SentinelSession

from tests.analysis.spmd_fixtures import rank_race


@pytest.fixture()
def sentinel():
    backend = SentinelBackend(workers=2)
    yield backend
    backend.close()


class TestFindingsReproduce:
    """Each fixture SPMD001 seed must trip the sentinel."""

    @pytest.mark.parametrize(
        "entry, expected_path",
        [
            ("run_append_global", "global.TOTALS"),
            ("run_store_global", "global.CACHE"),
            ("run_write_shared", "shared['acc']"),
            ("run_closure_append", "closure.acc"),
        ],
    )
    def test_violation_raises_with_path(self, sentinel, entry, expected_path):
        with pytest.raises(SharedStateMutationError) as err:
            getattr(rank_race, entry)(backend=sentinel)
        assert expected_path in err.value.path
        assert err.value.step  # names the offending superstep
        assert "SPMD001" in str(err.value)

    def test_clean_superstep_passes(self, sentinel):
        assert rank_race.run_clean(backend=sentinel) == [[0, 1]]


class TestBackendPlumbing:
    def test_registered_in_backend_names(self):
        assert "sentinel" in BACKEND_NAMES

    def test_make_backend_spec(self):
        be = build_backend("sentinel:3")
        assert isinstance(be, SentinelBackend)
        assert be.workers == 3 and be.enabled
        be.close()

    def test_disabled_hands_out_plain_thread_sessions(self):
        be = SentinelBackend(workers=2, enabled=False)
        session = be.open_session(2)
        try:
            assert isinstance(session, ThreadSession)
            assert not isinstance(session, SentinelSession)
        finally:
            session.close()
            be.close()

    def test_enabled_session_type(self, sentinel):
        session = sentinel.open_session(2)
        try:
            assert isinstance(session, SentinelSession)
        finally:
            session.close()


class TestFingerprint:
    def test_array_mutation_detected(self):
        a = np.zeros(4, dtype=np.int64)
        before = {}
        _fingerprint(a, before, "x", 0)
        a[1] = 7
        after = {}
        _fingerprint(a, after, "x", 0)
        assert before != after

    def test_nested_container_paths(self):
        out = {}
        _fingerprint({"k": [1, {2}]}, out, "root", 0)
        assert "root['k'][0]" in out and "root['k'][1]" in out

    def test_unknown_objects_skipped(self):
        import threading

        out = {}
        _fingerprint(threading.Lock(), out, "lock", 0)
        assert out == {}

    def test_closure_and_global_roots(self):
        acc = []

        def step(ctx):
            acc.append(ctx)
            return np

        paths = [p for p, _ in _function_roots(step)]
        assert "closure.acc" in paths
