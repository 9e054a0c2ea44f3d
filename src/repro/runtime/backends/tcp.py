"""Distributed TCP backend: an elastic fleet of dialled-in agents.

The backend is a *coordinator*: it listens on a TCP socket, worker
*agents* (the ``repro-agent`` console script, or ``python -m
repro.runtime.backends.tcp``) dial in, and every superstep is shipped
to the connected agents as a ``repro.wire/1`` message
(:mod:`repro.runtime.backends.wire` — framed pickle with NumPy arrays
as raw zero-copy frames).  Its sessions are
:class:`~repro.runtime.backends.supervised.SupervisedSession`s —
supervision, recovery, the agent command loop and the socket
:class:`~repro.runtime.backends.supervised.Channel` live in
:mod:`repro.runtime.backends.supervised`, shared with the process
backend, so a run on two agents across two hosts is bit-identical to
:class:`~repro.runtime.backends.serial.SerialBackend`.  This module
supplies only the pool: the listening socket, the hello/welcome
handshake, the roster and the ``repro-agent`` entry point.

Membership is *elastic*:

* ranks are multiplexed over however many agents are connected
  (``rank % len(agents)``), so a session of 8 ranks runs fine on 2
  agents;
* agents that join mid-run are handed to the session at the next
  superstep boundary (:meth:`TCPBackend.joined`), which replays its
  history into them;
* agents that die (or blow the per-step deadline) are dropped from the
  roster and replaced (:meth:`TCPBackend.replace` — locally spawned
  agents are respawned at the same roster slot; the roster shrinks for
  slots nobody refills).

Spawn modes: a loopback spec (``tcp://127.0.0.1:0:2``) spawns its own
local agent processes by default (self-contained, used by tests/CI);
``?spawn=external`` makes the coordinator wait for externally started
``repro-agent`` processes instead.

Observability: every byte moved is counted — ``bytes_sent`` /
``bytes_recv`` accumulate on the backend and flow into tracer spans,
with ``reconnects`` and ``ranks_migrated`` counted during recovery and
adoption, surfacing as the "Distributed" block of a run report.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.runtime.backends.base import BackendError, BackendSpec
from repro.runtime.backends.supervised import (
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


#: how long the coordinator waits for an accepted connection to finish
#: its hello/welcome handshake
HANDSHAKE_TIMEOUT_S = 10.0

#: default budget for agents to connect before a session proceeds
ACCEPT_TIMEOUT_S = 10.0

#: how locally spawned agents boot (``python -c``; sys.argv[1:] holds
#: the agent flags)
_AGENT_BOOTSTRAP = (
    "import sys; from repro.runtime.backends.tcp import agent_main; "
    "sys.exit(agent_main(sys.argv[1:]))"
)

#: name prefix shared with the process backend's pool — fault injection
#: identifies "am I a worker?" by this prefix, so ``kill`` faults fire
#: inside agents exactly like inside pooled workers
AGENT_NAME_PREFIX = "repro-spmd-agent"


# ----------------------------------------------------------------------
# backend (coordinator)
# ----------------------------------------------------------------------


class TCPBackend(SupervisedBackend):
    """Coordinator of a distributed agent fleet (see module doc)."""

    name = "tcp"
    peer_noun = "agent"
    pool_noun = "agent fleet"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        spawn: Optional[str] = None,
        supervisor: Optional[SupervisorConfig] = None,
        accept_timeout: float = ACCEPT_TIMEOUT_S,
        faults: str = "",
    ) -> None:
        super().__init__(workers, supervisor, faults)
        if spawn is None:
            spawn = (
                "local"
                if host in ("", "127.0.0.1", "localhost", "::1")
                else "external"
            )
        if spawn not in ("local", "external"):
            raise ValueError(
                f"spawn must be 'local' or 'external', got {spawn!r}"
            )
        self.host = host
        self.port = port
        self.spawn = spawn
        self.accept_timeout = accept_timeout
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._roster: List[Peer] = []
        self._pending: List[Peer] = []
        self._spawned: List["subprocess.Popen[bytes]"] = []
        self._agent_ids = itertools.count()
        self._closing = False
        self._atexit_registered = False

    # -- server --------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The coordinator's bound ``(host, port)`` (binds lazily)."""
        server = self._ensure_server()
        addr = server.getsockname()
        return str(addr[0]), int(addr[1])

    def _ensure_server(self) -> socket.socket:
        if self._server is None:
            self._server = socket.create_server(
                (self.host, self.port), backlog=16, reuse_port=False
            )
            self._closing = False
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name="repro-tcp-accept",
                daemon=True,
            )
            self._accept_thread.start()
            if not self._atexit_registered:
                atexit.register(self.close)
                self._atexit_registered = True
        return self._server

    def _accept_loop(self) -> None:
        server = self._server
        while server is not None and not self._closing:
            try:
                conn, _addr = server.accept()
            except OSError:
                break  # server socket closed
            try:
                self._handshake(conn)
            except Exception:  # pragma: no cover - defensive
                try:
                    conn.close()
                except OSError:
                    pass

    def _handshake(self, conn: socket.socket) -> None:
        """Hello/welcome handshake with a freshly accepted peer.

        The wire layer verifies the protocol version before a payload
        byte is trusted; a mismatched or malformed peer gets a
        best-effort ``reject`` and the connection is dropped.
        """
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        chan = Channel(conn)
        try:
            hello, n = chan.recv(HANDSHAKE_TIMEOUT_S)
        except WireVersionError as exc:
            self._reject(chan, str(exc))
            return
        except (PeerTimeout, EOFError, OSError, WireError):
            chan.close()
            return
        self.bytes_recv += n
        if (
            not isinstance(hello, tuple)
            or len(hello) != 2
            or hello[0] != "hello"
            or not isinstance(hello[1], dict)
        ):
            self._reject(chan, f"malformed hello: {hello!r}")
            return
        info: Dict[str, Any] = hello[1]
        if info.get("schema") != WIRE_SCHEMA:
            self._reject(
                chan,
                f"wire schema mismatch: agent speaks "
                f"{info.get('schema')!r}, coordinator speaks "
                f"{WIRE_SCHEMA!r}",
            )
            return
        name = str(info.get("name") or "")
        if not name:
            name = f"{AGENT_NAME_PREFIX}-{next(self._agent_ids)}"
        welcome = (
            "welcome",
            {"schema": WIRE_SCHEMA, "sys_path": list(sys.path)},
        )
        try:
            self.bytes_sent += chan.send(welcome)
        except OSError:
            chan.close()
            return
        with self._lock:
            self._pending.append(Peer(name, self, chan))

    def _reject(self, chan: Channel, reason: str) -> None:
        try:
            self.bytes_sent += chan.send(("reject", reason))
        except OSError:
            pass
        chan.close()

    # -- local agent processes -----------------------------------------
    def _spawn_agent(self) -> None:
        host, port = self.address
        connect_host = host if host not in ("", "0.0.0.0", "::") else (
            "127.0.0.1"
        )
        name = f"{AGENT_NAME_PREFIX}-{next(self._agent_ids)}"
        env = dict(os.environ)
        # the agent must import `repro` before it can reach the
        # coordinator's sys.path — make this package's tree visible
        pkg_root = os.path.dirname(
            os.path.dirname(
                os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))
                )
            )
        )
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _AGENT_BOOTSTRAP,
                "--connect",
                f"{connect_host}:{port}",
                "--name",
                name,
            ],
            env=env,
        )
        self._spawned.append(proc)

    def _reap_spawned(self) -> None:
        self._spawned = [
            proc for proc in self._spawned if proc.poll() is None
        ]

    # -- membership ----------------------------------------------------
    def _member_count(self) -> int:
        with self._lock:
            return len(self._roster) + len(self._pending)

    def _wait_for_members(self, minimum: int, want: int) -> None:
        """Block until ``want`` members are connected (or settle for
        ``minimum`` when the accept window closes)."""
        deadline = time.monotonic() + self.accept_timeout
        while time.monotonic() < deadline:
            if self._member_count() >= want:
                return
            time.sleep(0.01)
        if self._member_count() < minimum:
            raise BackendError(
                f"tcp backend: no worker agents connected to "
                f"{self.address[0]}:{self.address[1]} within "
                f"{self.accept_timeout:.1f}s — start them with "
                f"`repro-agent --connect HOST:PORT`"
            )

    def _connected(self) -> List[Peer]:
        with self._lock:
            return list(self._roster)

    # -- the pool ------------------------------------------------------
    def members(self) -> List[Peer]:
        """Bring the fleet up — spawn local agents (if configured),
        wait for the membership target, adopt whoever connected — and
        return the roster."""
        self._ensure_server()
        if self.spawn == "local":
            self._reap_spawned()
            with self._lock:
                have = (
                    len(self._roster)
                    + len(self._pending)
                    + len(self._spawned)
                )
            for _ in range(self.workers - have):
                self._spawn_agent()
        self._wait_for_members(minimum=1, want=self.workers)
        self.joined()
        return self._connected()

    def joined(self) -> List[Peer]:
        """Move newly connected agents into the roster."""
        with self._lock:
            fresh: List[Peer] = list(self._pending)
            self._pending = []
            self._roster.extend(fresh)
            return fresh

    def replace(self, lost: Set[Peer]) -> int:
        """Drop lost agents from the roster, respawn local
        replacements, and adopt whatever reconnects into the vacated
        slots (respawn-at-slot).  Returns the number of adopted
        replacements; the roster shrinks for slots nobody refills."""
        with self._lock:
            slots = [
                i for i, a in enumerate(self._roster) if a in lost
            ]
        for agent in lost:
            agent.destroy()
        if not slots:
            return 0
        if self.spawn == "local":
            self._reap_spawned()
            for _ in slots:
                self._spawn_agent()
        deadline = time.monotonic() + self.accept_timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self._pending) >= len(slots):
                    break
            time.sleep(0.01)
        with self._lock:
            fresh = self._pending
            self._pending = []
            for slot, agent in zip(slots, fresh):
                self._roster[slot] = agent
            self._roster.extend(fresh[len(slots):])
            for slot in reversed(slots[len(fresh):]):
                del self._roster[slot]
            self.reconnects += len(fresh)
            return len(fresh)

    def close(self) -> None:
        self._closing = True
        with self._lock:
            members = self._roster + self._pending
            self._roster = []
            self._pending = []
        for agent in members:
            agent.stop()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:  # pragma: no cover
                pass
            self._server = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
            self._accept_thread = None
        grace = self.supervisor.shutdown_grace_s
        for proc in self._spawned:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=grace)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=self.supervisor.kill_grace_s)
        self._spawned = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TCPBackend({self.host}:{self.port}, "
            f"workers={self.workers}, spawn={self.spawn!r})"
        )


def tcp_from_spec(spec: BackendSpec) -> TCPBackend:
    """Spec factory for ``tcp`` (URI form:
    ``tcp://host:port:workers?deadline=30&spawn=external``)."""
    return TCPBackend(
        host=spec.host or "127.0.0.1",
        port=spec.port or 0,
        workers=spec.workers,
        **pool_options(spec, spawn=str, accept_timeout=float),
    )


# ----------------------------------------------------------------------
# worker agent (remote side)
# ----------------------------------------------------------------------


def _connect(
    host: str, port: int, retries: int, retry_delay: float
) -> socket.socket:
    last: Optional[OSError] = None
    for attempt in range(retries + 1):
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            last = exc
            if attempt < retries:
                time.sleep(retry_delay)
    raise last if last is not None else OSError("connect failed")


def agent_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-agent`` console script.

    Connects to a coordinator, performs the ``repro.wire/1`` hello/
    welcome handshake, and serves supersteps until the coordinator
    disconnects.  Exit codes: 0 on orderly shutdown, 1 on a rejected
    handshake or unreachable coordinator.
    """
    parser = argparse.ArgumentParser(
        prog="repro-agent",
        description=(
            "SPMD worker agent for the distributed tcp backend: dials "
            "a coordinator and executes supersteps shipped over "
            f"{WIRE_SCHEMA}."
        ),
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    parser.add_argument(
        "--name",
        default=None,
        help="agent name advertised to the coordinator",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=10,
        help="connection attempts before giving up (default 10)",
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=0.5,
        help="seconds between connection attempts (default 0.5)",
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
    name = args.name or f"{AGENT_NAME_PREFIX}-{os.getpid()}"
    # fault injection identifies workers by process name — adopt the
    # worker prefix so `kill@STEP.RANK` faults fire inside the agent
    import multiprocessing

    multiprocessing.current_process().name = name
    try:
        sock = _connect(
            host, int(port_text), args.retries, args.retry_delay
        )
    except OSError as exc:
        print(
            f"repro-agent: cannot reach coordinator {args.connect}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    chan = Channel(sock)
    try:
        chan.send(
            (
                "hello",
                {
                    "schema": WIRE_SCHEMA,
                    "name": name,
                    "pid": os.getpid(),
                },
            )
        )
        reply, _n = chan.recv(HANDSHAKE_TIMEOUT_S)
    except (
        PeerTimeout, EOFError, OSError, WireError,
    ) as exc:
        print(
            f"repro-agent: handshake with {args.connect} failed: {exc}",
            file=sys.stderr,
        )
        chan.close()
        return 1
    if not isinstance(reply, tuple) or reply[0] != "welcome":
        reason = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        print(
            f"repro-agent: coordinator rejected the handshake: {reason}",
            file=sys.stderr,
        )
        chan.close()
        return 1
    # superstep functions arrive pickled by reference — make the
    # coordinator's import roots visible so they resolve here too
    for entry in reply[1].get("sys_path", []):
        if entry not in sys.path:
            sys.path.append(entry)
    serve_commands(chan)
    chan.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via Popen
    raise SystemExit(agent_main())
