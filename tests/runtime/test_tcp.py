"""Tests for the distributed tcp backend (coordinator + agents).

The contract under test mirrors the other backends: a run on a fleet
of socket-connected agent processes — including runs where agents are
killed, hang past the deadline, or join mid-run — must produce
results, ledgers, and merge order bit-identical to
:class:`SerialBackend`.  On top of that the suite pins the
``repro.wire/1`` handshake (version/schema rejection), elastic
membership accounting and the external ``repro-agent`` entry point.
Recovery, degradation and the local fallback are the transport-
parametrised suite of ``test_supervised.py``, instantiated here for
``tcp``.
"""

import os
import socket
import struct
import subprocess
import sys
import time
from functools import partial

import pytest

from repro.obs.report import RunReport
from repro.obs.tracer import Tracer
from repro.runtime.backends import SerialBackend, build_backend
from repro.runtime.backends.tcp import (
    AGENT_NAME_PREFIX,
    TCPBackend,
)
from repro.runtime.backends.wire import (
    WIRE_MAGIC,
    WIRE_SCHEMA,
    WIRE_VERSION,
    read_stream,
    write_stream,
)
from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps, without_arg
from tests.runtime import test_supervised as supervised

ACCEPT_TIMEOUT = 30.0  # generous: CI machines can be slow to fork


# ----------------------------------------------------------------------
# module-level supersteps (picklable, importable on the agents via the
# coordinator's propagated sys.path)
# ----------------------------------------------------------------------


def _seed_state(ctx):
    ctx.state["acc"] = ctx.rank + 1
    ctx.send((ctx.rank + 1) % ctx.size, ctx.rank, phase="ring", items=1)


def _fold_inbox(ctx):
    for _src, payload in ctx.inbox():
        ctx.state["acc"] += payload * 10
    ctx.send((ctx.rank + 2) % ctx.size, ctx.state["acc"], phase="ring",
             items=1)


def _collect(ctx):
    extras = sorted(p for _s, p in ctx.inbox())
    return (ctx.rank, ctx.state["acc"], extras)


PIPELINE = (_seed_state, _fold_inbox, _collect)


def _run_pipeline(backend, tracer=None, size=3):
    ledger = CommLedger()
    results = run_supersteps(
        size, PIPELINE, ledger=ledger, backend=backend, tracer=tracer
    )
    return results, ledger


def _serial_baseline(size=3):
    return _run_pipeline(SerialBackend(), size=size)


def _tcp_backend(workers=2, **kwargs):
    kwargs.setdefault("accept_timeout", ACCEPT_TIMEOUT)
    return TCPBackend(workers=workers, **kwargs)


# ----------------------------------------------------------------------
# plain runs: bit-identity with the serial backend
# ----------------------------------------------------------------------


class TestDistributedRuns:
    def test_bit_identical_to_serial(self):
        expected, expected_ledger = _serial_baseline()
        backend = _tcp_backend(workers=2)
        try:
            results, ledger = _run_pipeline(backend)
            assert results == expected
            assert ledger.summary() == expected_ledger.summary()
            assert ledger.max_rank_send("ring", 3) == (
                expected_ledger.max_rank_send("ring", 3)
            )
            # real traffic crossed the sockets, both directions
            assert backend.bytes_sent > 0
            assert backend.bytes_recv > 0
        finally:
            backend.close()

    def test_more_ranks_than_workers_multiplexes(self):
        expected, expected_ledger = _serial_baseline(size=5)
        backend = _tcp_backend(workers=2)
        try:
            results, ledger = _run_pipeline(backend, size=5)
            assert results == expected
            assert ledger.summary() == expected_ledger.summary()
        finally:
            backend.close()

    def test_health_check_heartbeats_the_fleet(self):
        backend = _tcp_backend(workers=2)
        try:
            _run_pipeline(backend)  # brings the fleet up
            health = backend.health_check()
            assert len(health) == 2
            assert all(health.values())
            assert all(
                name.startswith(AGENT_NAME_PREFIX) for name in health
            )
        finally:
            backend.close()

    def test_traffic_counters_reach_the_report(self):
        tracer = Tracer()
        ledger = CommLedger()
        backend = _tcp_backend(workers=2)
        try:
            run_supersteps(3, PIPELINE, ledger=ledger, backend=backend,
                     tracer=tracer)
        finally:
            backend.close()
        report = RunReport.from_run(tracer, ledger)
        totals = report.distributed_totals()
        assert totals["bytes_sent"] > 0
        assert totals["bytes_recv"] > 0
        assert "Distributed" in report.render()

    def test_spec_uri_configures_supervision(self):
        backend = build_backend(
            "tcp://127.0.0.1:0?workers=2&deadline=0&accept_timeout=30"
            "&faults=slow@0.0"
        )
        try:
            assert isinstance(backend, TCPBackend)
            assert backend.workers == 2
            assert backend.supervisor.step_deadline_s is None  # <=0
            assert backend.accept_timeout == 30.0
            assert backend.faults.to_text() == "slow@0.0"
        finally:
            backend.close()


# ----------------------------------------------------------------------
# handshake: version / schema enforcement on the raw socket
# ----------------------------------------------------------------------


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError("peer closed during read")
        data += chunk
    return data


def _dial_with_hello(backend, payload, *, version=WIRE_VERSION):
    """Open a raw socket to the coordinator, send ``payload`` framed as
    a ``version`` wire message, and return the coordinator's reply."""
    host, port = backend.address
    sock = socket.create_connection((host, port), timeout=10.0)
    try:
        chunks = []
        write_stream(chunks.append, payload)
        blob = bytearray(b"".join(bytes(c) for c in chunks))
        blob[4:6] = struct.pack("<H", version)
        sock.sendall(blob)
        reply, _n = read_stream(lambda n: _recv_exact(sock, n))
        return reply
    finally:
        sock.close()


class TestHandshake:
    @pytest.fixture()
    def listening_backend(self):
        # external spawn: the coordinator listens but starts no agents
        backend = TCPBackend(
            workers=1, spawn="external", accept_timeout=1.0
        )
        backend.address  # bind + start accepting
        yield backend
        backend.close()

    def test_version_mismatch_rejected(self, listening_backend):
        hello = ("hello", {"schema": WIRE_SCHEMA, "name": "x", "pid": 1})
        reply = _dial_with_hello(
            listening_backend, hello, version=WIRE_VERSION + 7
        )
        assert reply[0] == "reject"
        assert "version" in reply[1]
        assert listening_backend._member_count() == 0

    def test_schema_mismatch_rejected(self, listening_backend):
        hello = ("hello", {"schema": "repro.wire/999", "name": "x"})
        reply = _dial_with_hello(listening_backend, hello)
        assert reply[0] == "reject"
        assert "schema mismatch" in reply[1]
        assert listening_backend._member_count() == 0

    def test_malformed_hello_rejected(self, listening_backend):
        reply = _dial_with_hello(listening_backend, ("greetings", 42))
        assert reply[0] == "reject"
        assert "malformed hello" in reply[1]
        assert listening_backend._member_count() == 0

    def test_bad_magic_drops_connection(self, listening_backend):
        host, port = listening_backend.address
        sock = socket.create_connection((host, port), timeout=10.0)
        try:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16)
            sock.settimeout(10.0)
            assert sock.recv(1024) == b""  # closed, no reply
        finally:
            sock.close()
        assert listening_backend._member_count() == 0

    def test_good_hello_is_welcomed(self, listening_backend):
        hello = ("hello", {"schema": WIRE_SCHEMA, "name": "probe",
                           "pid": os.getpid()})
        reply = _dial_with_hello(listening_backend, hello)
        assert reply[0] == "welcome"
        assert reply[1]["schema"] == WIRE_SCHEMA
        assert isinstance(reply[1]["sys_path"], list)
        # dropping the connection right after the handshake must not
        # wedge the coordinator (the dead member is culled on use)
        assert WIRE_MAGIC == b"RPW\x01"


# ----------------------------------------------------------------------
# fault tolerance over sockets: the supervised suite on this transport
# ----------------------------------------------------------------------


class TestRecovery(supervised.RespawnCases):
    transport = "tcp"


class TestDegrade(supervised.DegradeCases):
    transport = "tcp"


class TestLocalFallback(supervised.FallbackCases):
    transport = "tcp"


# ----------------------------------------------------------------------
# elastic membership
# ----------------------------------------------------------------------


def _wait_for_pending_join(backend):
    """Block until an agent that dialed in after session open shows up
    in the coordinator's pending list."""
    deadline = time.monotonic() + ACCEPT_TIMEOUT
    while time.monotonic() < deadline:
        with backend._lock:
            if backend._pending:
                return
        time.sleep(0.01)
    pytest.fail("joining agent never connected")


class TestElasticMembership:
    def test_mid_run_join_adopted_and_backfilled(self):
        expected, expected_ledger = _serial_baseline(size=4)
        backend = _tcp_backend(workers=1)
        tracer = Tracer()
        ledger = CommLedger()
        results = []
        try:
            with backend.open_session(
                4, ledger=ledger, tracer=tracer
            ) as session:
                results.append(
                    session.step(partial(without_arg, _seed_state))
                )
                # a second agent dials in mid-run ...
                backend._spawn_agent()
                _wait_for_pending_join(backend)
                # ... and is adopted at the next superstep boundary
                for fn in PIPELINE[1:]:
                    results.append(
                        session.step(partial(without_arg, fn))
                    )
                assert len(backend._connected()) == 2
        finally:
            backend.close()
        assert results == expected
        assert ledger.summary() == expected_ledger.summary()
        report = RunReport.from_run(tracer, ledger)
        totals = report.distributed_totals()
        assert totals["agents_joined"] >= 1
        assert totals["ranks_migrated"] >= 1
        assert "Distributed" in report.render()


# ----------------------------------------------------------------------
# external agents (the `repro-agent` entry point)
# ----------------------------------------------------------------------

_AGENT_CMD = (
    "import sys; from repro.runtime.backends.tcp import agent_main; "
    "sys.exit(agent_main(sys.argv[1:]))"
)


def _agent_env():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestExternalAgents:
    def test_manually_started_agent_serves_a_run(self):
        expected, _ = _serial_baseline(size=2)
        backend = TCPBackend(
            workers=1, spawn="external", accept_timeout=ACCEPT_TIMEOUT
        )
        host, port = backend.address
        proc = subprocess.Popen(
            [sys.executable, "-c", _AGENT_CMD,
             "--connect", f"{host}:{port}", "--name", "ext-agent-0"],
            env=_agent_env(),
        )
        try:
            results, _ledger = _run_pipeline(backend, size=2)
            assert results == expected
            assert "ext-agent-0" in backend.health_check()
        finally:
            backend.close()
            try:
                assert proc.wait(timeout=15) == 0  # orderly shutdown
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=5)

    def test_agent_main_rejects_bad_connect_argument(self):
        from repro.runtime.backends.tcp import agent_main

        with pytest.raises(SystemExit):
            agent_main(["--connect", "no-port-here"])

    def test_agent_main_reports_unreachable_coordinator(self, monkeypatch):
        import multiprocessing

        from repro.runtime.backends.tcp import agent_main

        # agent_main renames its process to the worker prefix; undo it
        # here or every later "am I a pool worker?" check in this
        # pytest process (injected kills, the supervised suite) says yes
        me = multiprocessing.current_process()
        monkeypatch.setattr(me, "name", me.name)
        # a bound-but-unaccepting port refuses quickly on loopback
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = agent_main(
            ["--connect", f"127.0.0.1:{port}", "--retries", "0"]
        )
        assert rc == 1
