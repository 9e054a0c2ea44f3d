"""TCP backend: a pool of locally spawned agents that dial in.

The backend is a *coordinator*: to fill its pool it listens on a TCP
socket, spawns one agent per empty slot (``python -c``, running
:func:`serve_agent`) and accepts each agent's connection, and every
superstep is then shipped to the agents as a ``repro.wire/1`` message
(:mod:`repro.runtime.backends.wire` — framed pickle with NumPy arrays
as raw zero-copy frames).  The pool, supervision, recovery, the agent
command loop and the socket
:class:`~repro.runtime.backends.supervised.Channel` live in
:mod:`repro.runtime.backends.supervised`, shared with the process
backend, so a run on agents is bit-identical to
:class:`~repro.runtime.backends.serial.SerialBackend`.  This module
says only how a child starts: the listener, the spawn and the
hello/welcome handshake.

Bring-up is synchronous: every missing agent is spawned first, then
each is accepted and handshaken within ``accept_timeout``.  A
connection whose hello is malformed, speaks another wire version or
schema, or does not carry the name the coordinator gave one of the
agents it is waiting for is rejected and takes no slot; a slot that
is not filled in time raises :class:`BackendError`.

Observability: every byte moved is counted — ``bytes_sent`` /
``bytes_recv`` accumulate on the backend and flow into tracer spans,
with ``reconnects`` and ``ranks_migrated`` counted during recovery,
surfacing as the "Distributed" block of a run report.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import subprocess
import sys
import time
from typing import AbstractSet, Any, Dict, List, Optional

from repro.runtime.backends.base import BackendError, BackendSpec
from repro.runtime.backends.supervised import (
    KILL_GRACE_S,
    Channel,
    Peer,
    PeerTimeout,
    SupervisedBackend,
    SupervisorConfig,
    pool_options,
    serve_commands,
)
from repro.runtime.backends.wire import (
    WIRE_SCHEMA,
    WireError,
    WireVersionError,
)


#: how long either side of the handshake waits for the other's message
HANDSHAKE_TIMEOUT_S = 10.0

#: default budget for the spawned agents to connect and handshake
ACCEPT_TIMEOUT_S = 10.0

#: how a spawned agent boots (``python -c``; sys.argv[1:] holds the
#: coordinator's host and port and the agent's name)
_AGENT_BOOTSTRAP = (
    "import sys; from repro.runtime.backends.tcp import serve_agent; "
    "serve_agent(sys.argv[1], int(sys.argv[2]), sys.argv[3])"
)

#: name prefix shared with the process backend's pool — fault injection
#: identifies "am I a worker?" by this prefix, so ``kill`` faults fire
#: inside agents exactly like inside pooled workers
AGENT_NAME_PREFIX = "repro-spmd-agent"

#: the directory holding the ``repro`` package, put on a spawned
#: agent's ``PYTHONPATH`` so it can import ``repro`` before it learns
#: the coordinator's ``sys.path``
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)))


class _AgentProcess(subprocess.Popen[bytes]):
    """A spawned agent, answering the calls a
    :class:`~repro.runtime.backends.supervised.Peer` makes of a
    :class:`multiprocessing.Process`."""

    @property
    def exitcode(self) -> Optional[int]:
        return self.poll()

    def is_alive(self) -> bool:
        return self.poll() is None

    def join(self, timeout: Optional[float] = None) -> None:
        try:
            self.wait(timeout)
        except subprocess.TimeoutExpired:
            pass


def _spawn_agent(host: str, port: int, name: str) -> _AgentProcess:
    """Start one agent that dials ``host:port`` and says it is
    ``name``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC_ROOT, env.get("PYTHONPATH")) if p
    )
    return _AgentProcess(
        [sys.executable, "-c", _AGENT_BOOTSTRAP, host, str(port), name],
        env=env,
    )


def _refusal(hello: Any, names: AbstractSet[str]) -> str:
    """Why a coordinator refuses ``hello`` (empty when it comes from
    one of the agents named ``names``)."""
    if (
        not isinstance(hello, tuple)
        or len(hello) != 2
        or hello[0] != "hello"
        or not isinstance(hello[1], dict)
    ):
        return f"malformed hello: {hello!r}"
    schema, name = hello[1].get("schema"), hello[1].get("name")
    if schema != WIRE_SCHEMA:
        return (
            f"wire schema mismatch: agent speaks {schema!r}, "
            f"coordinator speaks {WIRE_SCHEMA!r}"
        )
    if not isinstance(name, str) or name not in names:
        return f"{name!r} is not an agent this coordinator awaits"
    return ""


# ----------------------------------------------------------------------
# backend (coordinator)
# ----------------------------------------------------------------------


class TCPBackend(SupervisedBackend):
    """Coordinator of a pool of spawned agents (see module doc)."""

    name = "tcp"
    peer_noun = "agent"
    pool_noun = "agent fleet"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
        accept_timeout: float = ACCEPT_TIMEOUT_S,
        faults: str = "",
    ) -> None:
        super().__init__(workers, supervisor, faults)
        self.host = host
        self.port = port
        self.accept_timeout = accept_timeout
        self._agent_ids = itertools.count()

    def _start(self, slots: List[int]) -> List[Peer]:
        """Listen, spawn one agent per slot, then accept and handshake
        each of them within ``accept_timeout``."""
        with socket.create_server((self.host, self.port)) as server:
            host, port = server.getsockname()[:2]
            if host in ("", "0.0.0.0", "::"):
                host = "127.0.0.1"
            agents: Dict[str, _AgentProcess] = {}
            for _slot in slots:
                name = f"{AGENT_NAME_PREFIX}-{next(self._agent_ids)}"
                agents[name] = _spawn_agent(host, port, name)
            peers: Dict[str, Peer] = {}
            deadline = time.monotonic() + self.accept_timeout
            try:
                while len(peers) < len(agents):
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise BackendError(
                            f"tcp backend: {len(agents) - len(peers)} of "
                            f"{len(agents)} agent(s) did not connect to "
                            f"{host}:{port} within "
                            f"{self.accept_timeout:.1f}s"
                        )
                    server.settimeout(left)
                    try:
                        conn, _addr = server.accept()
                    except socket.timeout:
                        continue
                    conn.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                    chan = Channel(conn)
                    admitted = self._handshake(
                        chan, agents.keys() - peers.keys(),
                        min(left, HANDSHAKE_TIMEOUT_S),
                    )
                    if admitted is not None:
                        peers[admitted] = Peer(
                            admitted, self, chan, agents[admitted]
                        )
            except BaseException:
                for peer in peers.values():
                    peer.chan.close()
                for agent in agents.values():
                    agent.kill()
                    agent.join(KILL_GRACE_S)
                raise
        return [peers[name] for name in agents]

    def _handshake(
        self, chan: Channel, names: AbstractSet[str], timeout: float
    ) -> Optional[str]:
        """Hello/welcome handshake with a freshly accepted connection;
        returns the agent's name, or ``None`` once the connection was
        refused and closed.

        The wire layer verifies the protocol version before a payload
        byte is trusted; a mismatched or malformed hello, or one whose
        name is not in ``names`` (the spawned agents still awaited),
        gets a best-effort ``reject``.
        """
        try:
            hello, n = chan.recv(timeout)
        except WireVersionError as exc:
            self._reject(chan, str(exc))
            return None
        except (PeerTimeout, EOFError, OSError, WireError):
            chan.close()
            return None
        self.bytes_recv += n
        reason = _refusal(hello, names)
        if reason:
            self._reject(chan, reason)
            return None
        welcome = (
            "welcome",
            {"schema": WIRE_SCHEMA, "sys_path": list(sys.path)},
        )
        try:
            self.bytes_sent += chan.send(welcome)
        except OSError:
            chan.close()
            return None
        return str(hello[1]["name"])

    def _reject(self, chan: Channel, reason: str) -> None:
        try:
            self.bytes_sent += chan.send(("reject", reason))
        except OSError:
            pass
        chan.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TCPBackend({self.host}:{self.port}, "
            f"workers={self.workers})"
        )


def tcp_from_spec(spec: BackendSpec) -> TCPBackend:
    """Spec factory for ``tcp`` (URI form:
    ``tcp://host:port:workers?deadline=30&accept_timeout=10``)."""
    return TCPBackend(
        host=spec.host or "127.0.0.1",
        port=spec.port or 0,
        workers=spec.workers,
        **pool_options(spec, accept_timeout=float),
    )


# ----------------------------------------------------------------------
# agent (the spawned child)
# ----------------------------------------------------------------------


def serve_agent(host: str, port: int, name: str) -> None:
    """A spawned agent's whole life: dial the coordinator, say hello as
    ``name``, and serve supersteps until the coordinator shuts it down
    or is gone.  A refused handshake exits with status 1."""
    # fault injection identifies pool children by process name, so
    # `kill@STEP.RANK` faults fire inside the agent
    multiprocessing.current_process().name = name
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    chan = Channel(sock)
    try:
        chan.send(
            ("hello", {"schema": WIRE_SCHEMA, "name": name,
                       "pid": os.getpid()})
        )
        reply, _n = chan.recv(HANDSHAKE_TIMEOUT_S)
        if reply[0] != "welcome":
            raise SystemExit(f"{name}: the coordinator refused: {reply[1]}")
        # superstep functions arrive pickled by reference — make the
        # coordinator's import roots visible so they resolve here too
        for entry in reply[1]["sys_path"]:
            if entry not in sys.path:
                sys.path.append(entry)
        serve_commands(chan)
    finally:
        chan.close()
