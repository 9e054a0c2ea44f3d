"""Tests for the tcp backend (coordinator + spawned agents).

The contract under test mirrors the other backends: a run on a pool
of socket-connected agent processes — including runs where agents are
killed or hang past the deadline — must produce results, ledgers, and
merge order bit-identical to :class:`SerialBackend`.  On top of that
the suite pins the ``repro.wire/1`` handshake (version/schema/name
rejection).  Recovery, degradation and the local fallback are the
transport-parametrised suite of ``test_supervised.py``, instantiated
here for ``tcp``.
"""

import os
import socket
import struct
import time

import pytest

from repro.obs.report import RunReport
from repro.obs.tracer import Tracer
from repro.runtime.backends import SerialBackend, build_backend, tcp
from repro.runtime.backends.supervised import Channel
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
from tests.runtime.spmd import run_supersteps
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
# handshake: version / schema / name enforcement
# ----------------------------------------------------------------------


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError("peer closed during read")
        data += chunk
    return data


def _hello_bytes(payload, *, version=WIRE_VERSION):
    """``payload`` framed as a wire message of ``version``."""
    chunks = []
    write_stream(chunks.append, payload)
    blob = bytearray(b"".join(bytes(c) for c in chunks))
    blob[4:6] = struct.pack("<H", version)
    return bytes(blob)


class TestHandshake:
    """The coordinator's side of the handshake, driven over a socket
    pair: the test writes the hello on one end, the coordinator reads
    it and answers on the other."""

    @pytest.fixture()
    def handshake(self):
        backend = TCPBackend(workers=1)
        ends = []

        def run(raw, names=frozenset({"x"})):
            ours, theirs = socket.socketpair()
            ends.append(theirs)
            theirs.sendall(raw)
            return backend._handshake(Channel(ours), names, 10.0), theirs

        yield run
        for end in ends:
            end.close()

    @staticmethod
    def _reply(sock):
        return read_stream(lambda n: _recv_exact(sock, n))[0]

    def test_version_mismatch_rejected(self, handshake):
        hello = ("hello", {"schema": WIRE_SCHEMA, "name": "x", "pid": 1})
        admitted, sock = handshake(
            _hello_bytes(hello, version=WIRE_VERSION + 7)
        )
        reply = self._reply(sock)
        assert reply[0] == "reject"
        assert "version" in reply[1]
        assert admitted is None

    def test_schema_mismatch_rejected(self, handshake):
        hello = ("hello", {"schema": "repro.wire/999", "name": "x"})
        admitted, sock = handshake(_hello_bytes(hello))
        reply = self._reply(sock)
        assert reply[0] == "reject"
        assert "schema mismatch" in reply[1]
        assert admitted is None

    def test_malformed_hello_rejected(self, handshake):
        admitted, sock = handshake(_hello_bytes(("greetings", 42)))
        reply = self._reply(sock)
        assert reply[0] == "reject"
        assert "malformed hello" in reply[1]
        assert admitted is None

    def test_bad_magic_drops_connection(self, handshake):
        admitted, sock = handshake(
            b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 16
        )
        sock.settimeout(10.0)
        try:
            data = sock.recv(1024)
        except ConnectionResetError:  # closed with the junk unread
            data = b""
        assert data == b""  # dropped, no reply
        assert admitted is None

    def test_good_hello_is_welcomed(self, handshake):
        hello = ("hello", {"schema": WIRE_SCHEMA, "name": "probe",
                           "pid": os.getpid()})
        admitted, sock = handshake(
            _hello_bytes(hello), names=frozenset({"probe"})
        )
        reply = self._reply(sock)
        assert reply[0] == "welcome"
        assert reply[1]["schema"] == WIRE_SCHEMA
        assert isinstance(reply[1]["sys_path"], list)
        assert admitted == "probe"
        assert WIRE_MAGIC == b"RPW\x01"


def test_stranger_is_rejected_during_bring_up(monkeypatch):
    """A connection that dials in while the pool comes up, with a
    well-formed hello but a name the coordinator did not give any of
    its agents, is refused and takes no slot; the run still matches
    serial."""
    expected, expected_ledger = _serial_baseline()
    strangers = []
    spawn = tcp._spawn_agent

    def dial_in_first(host, port, name):
        if not strangers:
            sock = socket.create_connection((host, port), timeout=10.0)
            strangers.append(sock)
            hello = ("hello", {"schema": WIRE_SCHEMA, "name": "stranger",
                               "pid": 1})
            sock.sendall(_hello_bytes(hello))
        return spawn(host, port, name)

    monkeypatch.setattr(tcp, "_spawn_agent", dial_in_first)
    backend = _tcp_backend(workers=2)
    try:
        results, ledger = _run_pipeline(backend)
        names = [peer.name for peer in backend.members()]
        reply = read_stream(lambda n: _recv_exact(strangers[0], n))[0]
    finally:
        backend.close()
        for sock in strangers:
            sock.close()
    assert reply[0] == "reject" and "stranger" in reply[1]
    assert len(names) == 2
    assert all(name.startswith(AGENT_NAME_PREFIX) for name in names)
    assert results == expected
    assert ledger.summary() == expected_ledger.summary()


# ----------------------------------------------------------------------
# fault tolerance over sockets: the supervised suite on this transport
# ----------------------------------------------------------------------


class TestRecovery(supervised.RespawnCases):
    transport = "tcp"

    def test_hung_agent_is_terminated_on_recovery(self):
        """Replacing a hung agent ends its process within the shutdown
        and kill graces (``destroy`` waits for it), instead of leaving
        it asleep until its hang is over."""
        steps = (supervised._bump, supervised._bump, supervised._report)
        ref_results, _ = supervised._reference(steps)
        backend = supervised.pool_backend(
            "tcp", faults="hang@1.0:60", step_deadline_s=1.0
        )
        try:
            hung = backend.members()[0].proc  # rank 0's agent
            start = time.monotonic()
            results, _ledger = supervised._run(backend, steps)
            assert hung.exitcode is not None  # gone, not asleep
            assert time.monotonic() - start < 20.0  # not the 60 s hang
            assert backend.reconnects >= 1
        finally:
            backend.close()
        assert results == ref_results


class TestDegrade(supervised.DegradeCases):
    transport = "tcp"


class TestLocalFallback(supervised.FallbackCases):
    transport = "tcp"
