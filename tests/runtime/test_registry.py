"""Tests for the backend registry and :class:`BackendSpec` parsing.

The registry replaced the hardcoded if/elif backend chain: every
textual selection (``--backend``, ``$REPRO_BACKEND``, service
requests) parses into a frozen :class:`BackendSpec` and resolves
through :func:`build_backend`.  These tests pin the three spec text
forms, the option schema validation, registration semantics, the
deprecation shim, and the env-cache invalidation rules.
"""

import os

import pytest

from repro.runtime.backends import (
    BACKEND_NAMES,
    Backend,
    BackendSpec,
    backend_names,
    build_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.runtime.backends.base import _backend_from_env
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
        spec = BackendSpec.parse("tcp://h:1?deadline=30&retries=2")
        opts = spec.typed_options({"deadline": float, "retries": int})
        assert opts == {"deadline": 30.0, "retries": 2}
        with pytest.raises(ValueError, match="does not accept option"):
            spec.typed_options({"deadline": float})
        bad = BackendSpec.parse("tcp://h:1?deadline=soon")
        with pytest.raises(ValueError, match="invalid value"):
            bad.typed_options({"deadline": float})


class _DummyBackend(Backend):
    name = "dummy"

    def __init__(self, spec):
        self.spec = spec

    def open_session(self, size, ledger, tracer=None, shared=None):
        raise NotImplementedError


def _dummy_factory(spec):
    return _DummyBackend(spec)


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        for name in ("serial", "thread", "process", "sentinel",
                     "chaos", "tcp"):
            assert name in names

    def test_backend_names_is_live_view(self):
        assert "dummy" not in BACKEND_NAMES
        register_backend("dummy", _dummy_factory)
        try:
            assert "dummy" in BACKEND_NAMES
            assert "dummy" in list(BACKEND_NAMES)
        finally:
            assert unregister_backend("dummy")
        assert "dummy" not in BACKEND_NAMES

    def test_register_build_unregister(self):
        register_backend("dummy", _dummy_factory)
        try:
            backend = build_backend("dummy:3")
            assert isinstance(backend, _DummyBackend)
            assert backend.spec.workers == 3
        finally:
            unregister_backend("dummy")
        with pytest.raises(ValueError, match="unknown backend 'dummy'"):
            build_backend("dummy")

    def test_duplicate_registration_needs_overwrite(self):
        register_backend("dummy", _dummy_factory)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_backend("dummy", _dummy_factory)
            register_backend("dummy", _dummy_factory, overwrite=True)
        finally:
            unregister_backend("dummy")

    @pytest.mark.parametrize("bad", ["", "with space", "a:b", "x?y"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid backend name"):
            register_backend(bad, _dummy_factory)

    def test_lazy_string_factory_imports_on_first_use(self):
        register_backend(
            "dummy", f"{__name__}:_dummy_factory"
        )
        try:
            backend = build_backend("dummy")
            assert isinstance(backend, _DummyBackend)
        finally:
            unregister_backend("dummy")

    def test_options_validated_against_schema(self):
        with pytest.raises(ValueError, match="does not accept option"):
            build_backend("serial://?bogus=1")

    def test_embedded_workers_beat_argument(self):
        register_backend("dummy", _dummy_factory)
        try:
            assert build_backend("dummy:5", workers=2).spec.workers == 5
            assert build_backend("dummy", workers=2).spec.workers == 2
        finally:
            unregister_backend("dummy")

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
        register_backend("dummy", _dummy_factory)
        try:
            monkeypatch.setenv("REPRO_BACKEND", "dummy://h:1?x=1")
            register_backend(
                "dummy", _dummy_factory, overwrite=True,
                spec_schema={"x": int},
            )
            first = _backend_from_env()
            # same text -> same memoised instance
            assert _backend_from_env() is first
            # an option change is visible in the parsed spec -> rebuild
            monkeypatch.setenv("REPRO_BACKEND", "dummy://h:1?x=2")
            second = _backend_from_env()
            assert second is not first
            assert second.spec.option("x") == "2"
        finally:
            unregister_backend("dummy")

    def test_env_cache_invalidates_on_reregistration(self, monkeypatch):
        register_backend("dummy", _dummy_factory)
        try:
            monkeypatch.setenv("REPRO_BACKEND", "dummy")
            first = _backend_from_env()
            register_backend("dummy", _dummy_factory, overwrite=True)
            assert _backend_from_env() is not first
        finally:
            unregister_backend("dummy")

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        assert isinstance(resolve_backend("serial"), SerialBackend)
