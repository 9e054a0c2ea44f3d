"""Tests for backend selection and :class:`BackendSpec` parsing.

Every textual selection (``--backend``, ``$REPRO_BACKEND``, service
requests) parses into a frozen :class:`BackendSpec` and resolves
through :func:`build_backend` against the table of built-ins.  These
tests pin the three spec text forms, each factory's option validation
and the env-cache invalidation rules.
"""

import pytest

from repro.runtime.backends import (
    BACKEND_NAMES,
    BackendSpec,
    build_backend,
    process,
    resolve_backend,
    tcp,
)
from repro.runtime.backends.base import _backend_from_env
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.backends.serial import SerialBackend


class TestBackendSpecParse:
    def test_bare_name(self):
        spec = BackendSpec.parse("serial")
        assert spec.scheme == "serial"
        assert spec.workers is None
        assert spec.host is None and spec.port is None
        assert spec.options == ()

    def test_name_with_workers(self):
        spec = BackendSpec.parse("process:4")
        assert (spec.scheme, spec.workers) == ("process", 4)

    def test_uri_with_query(self):
        spec = BackendSpec.parse(
            "tcp://10.0.0.5:9000?workers=4&deadline=30"
        )
        assert spec.scheme == "tcp"
        assert spec.host == "10.0.0.5"
        assert spec.port == 9000
        assert spec.workers == 4
        assert spec.options_map == {"deadline": "30"}

    def test_uri_three_segment_authority(self):
        spec = BackendSpec.parse("tcp://127.0.0.1:0:2")
        assert spec.host == "127.0.0.1"
        assert spec.port == 0
        assert spec.workers == 2

    def test_case_and_whitespace_normalised(self):
        assert BackendSpec.parse("  SERIAL ").scheme == "serial"
        assert BackendSpec.parse("TCP://h:1").scheme == "tcp"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "process:0",
            "process:many",
            "tcp://h:port",
            "tcp://h:1:2:3",
            "tcp://h:1/path",
            "tcp://h:99999",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            BackendSpec.parse(bad)

    @pytest.mark.parametrize(
        "text",
        [
            "serial",
            "process:4",
            "tcp://127.0.0.1:9000?deadline=30&workers=2",
            "tcp://127.0.0.1:0:2",
        ],
    )
    def test_to_text_round_trips(self, text):
        spec = BackendSpec.parse(text)
        assert BackendSpec.parse(spec.to_text()) == spec

    def test_specs_are_hashable_cache_keys(self):
        a = BackendSpec.parse("tcp://h:1?deadline=30")
        b = BackendSpec.parse("tcp://h:1?deadline=30")
        c = BackendSpec.parse("tcp://h:1?deadline=60")
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_typed_options_converts_and_rejects_unknown(self):
        spec = BackendSpec.parse("tcp://h:1?deadline=30&accept_timeout=5")
        opts = spec.typed_options(
            {"deadline": float, "accept_timeout": float}
        )
        assert opts == {"deadline": 30.0, "accept_timeout": 5.0}
        with pytest.raises(ValueError, match="does not accept option"):
            spec.typed_options({"deadline": float})
        bad = BackendSpec.parse("tcp://h:1?deadline=soon")
        with pytest.raises(ValueError, match="invalid value"):
            bad.typed_options({"deadline": float})


class TestRegistry:
    def test_builtins_registered(self):
        assert BACKEND_NAMES == ("process", "serial", "tcp", "thread")

    def test_deleted_backend_is_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown backend 'sentinel'"):
            build_backend("sentinel")
        monkeypatch.setenv("REPRO_BACKEND", "sentinel")
        with pytest.raises(ValueError, match="unknown backend 'sentinel'"):
            resolve_backend()

    def test_options_validated_against_schema(self):
        with pytest.raises(ValueError, match="does not accept option"):
            build_backend("serial://?bogus=1")

    @pytest.mark.parametrize(
        "spec",
        [
            "thread://?faults=kill@0.0",
            "process://?faults=boom@1.0",
            "process://?deadline=soon",
            "tcp://127.0.0.1:0?retries=2",
            "tcp://127.0.0.1:0?spawn=external",
        ],
    )
    def test_bad_option_refused_before_any_peer_starts(
        self, monkeypatch, spec
    ):
        """An option a backend does not take (``faults=`` on an
        in-process backend, the tcp URI's old ``retries=`` and
        ``spawn=``) or a value that does not parse is a ``ValueError``
        from ``build_backend``, raised before a worker is forked or an
        agent spawned."""

        def no_peers(*_args, **_kwargs):
            raise AssertionError("a peer was started")

        monkeypatch.setattr(process.ProcessBackend, "_start", no_peers)
        monkeypatch.setattr(tcp.TCPBackend, "_start", no_peers)
        with pytest.raises(ValueError):
            build_backend(spec)

    def test_pool_options_from_the_spec(self):
        backend = build_backend(
            "process://?workers=2&deadline=60&faults=kill@2.1,slow@5.0:0.02"
        )
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2
        assert backend.supervisor.step_deadline_s == 60.0
        assert backend.faults.to_text() == "kill@2.1,slow@5.0:0.02"
        assert build_backend(
            "process://?deadline=0"
        ).supervisor.step_deadline_s is None

    def test_backend_instance_passes_through(self):
        backend = SerialBackend()
        assert build_backend(backend) is backend
        assert resolve_backend(backend) is backend


class TestEnvResolution:
    @pytest.fixture(autouse=True)
    def _isolate_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        yield
        # drop any instance memoised during the test
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        _backend_from_env()

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(resolve_backend(), SerialBackend)

    def test_env_cache_reuses_instance(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert _backend_from_env() is _backend_from_env()

    def test_env_cache_invalidates_on_spec_change(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process://?faults=slow@1.0:0.001")
        first = _backend_from_env()
        assert isinstance(first, ProcessBackend)
        # same text -> same memoised instance
        assert _backend_from_env() is first
        # an option change is visible in the parsed spec -> rebuild
        monkeypatch.setenv("REPRO_BACKEND", "process://?faults=slow@2.0:0.001")
        second = _backend_from_env()
        assert second is not first
        assert second.faults.to_text() == "slow@2.0:0.001"

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert isinstance(resolve_backend("serial"), SerialBackend)
