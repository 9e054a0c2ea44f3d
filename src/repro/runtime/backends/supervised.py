"""Supervised SPMD sessions over a pool of remote peers.

The ``process`` and ``tcp`` backends run a session's ranks on *peers* —
forked pool workers or dialled-in agents — that all speak the same
``repro.wire/1`` commands (``open`` / ``step`` / ``replay`` / ``close``
/ ``ping`` / ``shutdown``) over the same :class:`Channel`, a connected
stream socket.  Everything that does not depend on where the peers come
from lives here, once:

* :class:`SupervisedSession` — the coordinator-side state machine
  (``pending`` → ``remote`` | ``local``): lazy open, deadline dispatch
  with dead/hung classification, replacement of lost peers +
  deterministic history replay, retry with backoff, degradation to
  in-process serial execution, and mid-run adoption of new peers.
  It is the only place a failed superstep is retried: a lost worker
  is the one fault a retry can cure, since a superstep that raised
  raises again;
* :func:`serve_commands` — the peer-side command loop;
* :class:`Channel` and :class:`Peer` — one framed message each way,
  with byte accounting and reply validation;
* :class:`SupervisorConfig` — the supervision policy, and
  :func:`pool_options` — the spec options both pools accept
  (``deadline=``, ``faults=``).

A backend supplies only the *pool* (:class:`SupervisedBackend`:
``members`` / ``replace`` / ``joined``) and, where it owns the peer's
process, that process's lifecycle.  See ``docs/FAULT_TOLERANCE.md``
("Supervised sessions").

Determinism: peers never talk to each other — all routing and ledger
replay happens in the coordinator in rank order
(:meth:`repro.runtime.backends.base.SpmdSession._merge`), so results
are bit-identical to :class:`~repro.runtime.backends.serial.SerialBackend`.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.obs.tracer import Span, TracerBase
from repro.runtime.backends.base import (
    Backend,
    BackendError,
    BackendSpec,
    Message,
    RankOutcome,
    SpmdSession,
    StepFn,
    default_workers,
    read_only_shared,
    run_rank_step,
)
from repro.runtime.backends.wire import (
    WireError,
    read_stream,
    write_stream,
)
from repro.runtime.faults import ChaosStep, FaultPlan
from repro.runtime.ledger import CommLedger

# ----------------------------------------------------------------------
# supervision policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy for a pool of remote peers.

    ``step_deadline_s``
        Wall-clock budget for one superstep dispatch; a peer that has
        not replied when it expires is treated as hung and replaced.
        ``None`` (the default) waits forever.
    ``heartbeat_timeout_s``
        How long health checks, survivor resets and the close handshake
        wait for a reply before declaring a peer unresponsive.
    ``max_retries``
        How many times a failed superstep is retried (with the lost
        peers replaced and the session history replayed) before the
        session gives up.
    ``backoff_base_s`` / ``backoff_factor``
        Exponential backoff between retries: the first retry sleeps
        ``backoff_base_s``, each further retry multiplies the delay.
    ``shutdown_grace_s`` / ``kill_grace_s``
        Shutdown escalation budget: graceful join, then ``terminate``
        with another ``shutdown_grace_s`` join, then ``kill``.

    Once the retry budget is exhausted the session degrades to
    in-process serial execution (``RuntimeWarning``, ledger accounting
    preserved).
    """

    step_deadline_s: Optional[float] = None
    heartbeat_timeout_s: float = 2.0
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    shutdown_grace_s: float = 5.0
    kill_grace_s: float = 1.0

    def __post_init__(self) -> None:
        if self.step_deadline_s is not None and self.step_deadline_s <= 0:
            raise ValueError("step_deadline_s must be positive or None")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("invalid backoff configuration")


def pool_options(
    spec: BackendSpec, **extra: Callable[[str], Any]
) -> Dict[str, Any]:
    """Keyword arguments for a pool from its spec's query options.

    Both pools accept ``deadline=SECONDS`` (the per-superstep deadline;
    ``0`` means none) and ``faults=PLAN`` (a :class:`FaultPlan` text);
    ``extra`` names the pool's own options with their converters.  An
    unknown option or a malformed value is a :class:`ValueError`.
    """
    opts = spec.typed_options(
        {"deadline": float, "faults": str, **extra}
    )
    if "deadline" in opts:
        deadline = opts.pop("deadline")
        opts["supervisor"] = SupervisorConfig(
            step_deadline_s=deadline if deadline > 0 else None
        )
    return opts


# ----------------------------------------------------------------------
# channels, peers and pools
# ----------------------------------------------------------------------


class PeerTimeout(Exception):
    """A peer did not reply within the deadline."""


class PeerLoss(Exception):
    """One exchange lost peers (died, or blew the deadline)."""

    def __init__(self, dead: List["Peer"], hung: List["Peer"]) -> None:
        self.dead = dead
        self.hung = hung
        lost = dead + hung
        super().__init__(
            f"lost {lost[0].noun}(s): "
            + ", ".join(peer.name for peer in lost)
        )

    @property
    def peers(self) -> Set["Peer"]:
        return set(self.dead) | set(self.hung)


class _StepUndecodable(Exception):
    """Internal: peers could not decode the superstep message (the
    function's module is not importable on the peer side)."""


class Channel:
    """One connected stream socket speaking ``repro.wire/1`` messages
    (a TCP connection or one end of a ``socketpair``)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, obj: Any) -> int:
        """Write one wire message; returns bytes written."""
        with self._lock:
            # a bounded recv leaves its timeout on the socket; a frame
            # must never be abandoned half-written because of it
            self._sock.settimeout(None)
            return write_stream(self._sock.sendall, obj)

    def recv(self, timeout: Optional[float] = None) -> Tuple[Any, int]:
        """Read one wire message; returns ``(object, bytes_read)``.

        Raises :class:`PeerTimeout` when ``timeout`` expires, and
        ``EOFError``/``OSError``/``WireError`` on a broken peer.
        """
        self._sock.settimeout(timeout)
        try:
            return read_stream(self._read_exact)
        except socket.timeout:
            raise PeerTimeout() from None

    def _read_exact(self, n: int) -> bytes:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            read = self._sock.recv_into(view[got:], n - got)
            if read == 0:
                raise EOFError("peer closed the connection")
            got += read
        return bytes(buf)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class Peer:
    """Coordinator-side handle to one remote peer: a named
    :class:`Channel`.

    The handle turns channel failures into :class:`BackendError`,
    validates the reply shape and accounts the traffic on its backend.
    Its lifecycle is that of a connection; a pool that also owns the
    peer's process extends :meth:`stop` / :meth:`destroy`.
    """

    def __init__(
        self, name: str, backend: "SupervisedBackend", chan: Channel
    ) -> None:
        self.name = name
        self.backend = backend
        self.chan = chan

    @property
    def noun(self) -> str:
        """What the backend calls its peers in messages."""
        return self.backend.peer_noun

    def _status(self) -> str:
        """Extra detail for "peer is gone" messages."""
        return ""

    def stop(self) -> None:
        """Graceful shutdown: tell the peer to exit, close the
        channel."""
        try:
            self.chan.send(("shutdown",))
        except OSError:
            pass
        self.destroy()

    def destroy(self) -> None:
        """Forcible teardown of a dead or hung peer (no shutdown
        handshake — its command loop may never read it)."""
        self.chan.close()

    def send(self, msg: Any) -> int:
        try:
            nbytes = self.chan.send(msg)
        except OSError as exc:
            raise BackendError(
                f"{self.noun} {self.name} is gone{self._status()}"
            ) from exc
        self.backend.bytes_sent += nbytes
        return nbytes

    def recv(self, timeout: Optional[float] = None) -> Tuple[str, Any]:
        """One ``(tag, payload)`` reply (raises :class:`PeerTimeout`
        on deadline, :class:`BackendError` on a dead peer)."""
        try:
            reply, nbytes = self.chan.recv(timeout)
        except (EOFError, OSError, WireError) as exc:
            raise BackendError(
                f"{self.noun} {self.name} died{self._status()}"
            ) from exc
        self.backend.bytes_recv += nbytes
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or not isinstance(reply[0], str)
        ):
            raise BackendError(f"malformed {self.noun} reply: {reply!r}")
        return reply[0], reply[1]

    def ping(self, timeout: float) -> bool:
        """Request/reply heartbeat (only valid between supersteps)."""
        try:
            self.send(("ping",))
            tag, payload = self.recv(timeout)
        except (BackendError, PeerTimeout):
            return False
        return tag == "ok" and payload == "pong"


class SupervisedBackend(Backend):
    """A backend whose sessions run on a pool of remote peers.

    Subclasses are the *pool*: they create the peers and answer the
    three questions a :class:`SupervisedSession` asks of it.
    """

    #: how messages name one peer and the pool
    peer_noun = "peer"
    pool_noun = "peer pool"

    def __init__(
        self,
        workers: Optional[int],
        supervisor: Optional[SupervisorConfig],
        faults: str,
    ) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.supervisor = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        #: the injected faults (:mod:`repro.runtime.faults`) and the
        #: global superstep index they are scheduled against
        self.faults = FaultPlan.parse(faults)
        self._steps = itertools.count()
        #: coordinator-side ``repro.wire/1`` traffic and pool churn
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.reconnects = 0
        self._sids = itertools.count()

    # -- the pool interface --------------------------------------------
    def members(self) -> List[Peer]:
        """The live pool in slot order, brought up first if need be
        (raises :class:`BackendError` when there is nobody)."""
        raise NotImplementedError

    def replace(self, lost: Set[Peer]) -> int:
        """Tear down ``lost`` peers and refill their slots; returns how
        many replacements joined the pool."""
        raise NotImplementedError

    def joined(self) -> List[Peer]:
        """Peers that joined the pool since the last call (a pool of
        fixed membership never has any)."""
        return []

    def _arm(self, step: int, size: int) -> Dict[int, Tuple[str, float]]:
        """The faults scheduled for global superstep ``step``, by rank;
        one aimed at a rank outside the ``size``-rank session is
        skipped.  Each step index comes up once, so a fault fires at
        most once."""
        return {
            spec.rank: (spec.kind, spec.seconds)
            for spec in self.faults.faults
            if spec.step == step and spec.rank < size
        }

    # ------------------------------------------------------------------
    def _connected(self) -> List[Peer]:
        """The peers :meth:`health_check` pings."""
        return self.members()

    def health_check(
        self, timeout: Optional[float] = None
    ) -> Dict[str, bool]:
        """Heartbeat every connected peer (request/reply ping; only
        valid between supersteps).  Returns ``{peer name: alive}``."""
        if timeout is None:
            timeout = self.supervisor.heartbeat_timeout_s
        return {
            peer.name: peer.ping(timeout) for peer in self._connected()
        }

    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        return SupervisedSession(
            size, ledger, tracer, shared, self, next(self._sids)
        )


# ----------------------------------------------------------------------
# session (coordinator side)
# ----------------------------------------------------------------------


class SupervisedSession(SpmdSession):
    """Session whose ranks execute on the backend's peer pool.

    The session goes *remote* lazily at the first superstep: if that
    step's ``(fn, arg)`` cannot be pickled (or the peers cannot decode
    it), the whole session falls back to in-process serial execution
    with a warning — per-rank state has not left the process yet, so
    the downgrade is safe.  Every later exchange with the pool — open,
    step, replay — classifies unresponsive peers as dead or hung and
    feeds one retry loop: replace the lost peers, rebuild the session
    by deterministic history replay, retry; degrade to local execution
    when the retry budget runs out.
    """

    def __init__(
        self,
        size: int,
        ledger: Optional[CommLedger],
        tracer: Optional[TracerBase],
        shared: Optional[Mapping[str, Any]],
        pool: SupervisedBackend,
        sid: int,
    ) -> None:
        super().__init__(size, ledger, tracer)
        self._pool = pool
        self._sid = sid
        # the plain dict travels in the ``open`` message; in-process
        # ranks (the local fallback) read the read-only view of it
        self._shared_input: Mapping[str, Any] = (
            dict(shared) if shared else {}
        )
        self._local_shared = read_only_shared(self._shared_input)
        self._trace = bool(getattr(self.tracer, "enabled", False))
        self._mode = "pending"  # -> "remote" | "local"
        self._owners: List[Tuple[Peer, List[int]]] = []
        self._rank_owner: Dict[int, str] = {}
        self._local_states: List[Dict[str, Any]] = []
        # (plain fn, arg, per-rank inbox copies) of every successful
        # step — replayed into fresh peers to rebuild rank state
        self._history: List[
            Tuple[StepFn, Any, List[List[Message]]]
        ] = []

    # -- local execution -----------------------------------------------
    def _run_local(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        return [
            run_rank_step(
                fn, arg, rank, self.size, self._local_shared,
                self._local_states[rank], inboxes[rank], self._trace,
            )
            for rank in range(self.size)
        ]

    def _fall_back_local(self, fn: StepFn, reason: object) -> None:
        pool = self._pool
        warnings.warn(
            f"{pool.name} backend: superstep "
            f"{getattr(fn, '__qualname__', fn)!r} "
            f"is not picklable ({reason}); the session falls back to "
            "in-process serial execution. Use module-level superstep "
            f"functions to run on the {pool.pool_noun}.",
            RuntimeWarning,
            stacklevel=4,
        )
        self._mode = "local"
        self._local_states = [{} for _ in range(self.size)]

    def _rebuild_local_states(self) -> None:
        """In-process replay of the step history (outcomes discarded —
        their ledger/span contributions were merged when the steps
        first succeeded)."""
        self._local_states = [{} for _ in range(self.size)]
        for hist_fn, hist_arg, hist_inboxes in self._history:
            for rank in range(self.size):
                run_rank_step(
                    hist_fn, hist_arg, rank, self.size,
                    self._local_shared, self._local_states[rank],
                    list(hist_inboxes[rank]), False,
                )

    # -- talking to the pool -------------------------------------------
    def _exchange(
        self,
        what: str,
        message_for: Callable[[List[int]], Any],
        timeout: Optional[float],
        skip: AbstractSet[Peer] = frozenset(),
    ) -> Tuple[List[Any], int]:
        """Send ``message_for(ranks)`` to every owner outside ``skip``,
        then read every reply under one shared deadline.  Every owner
        is drained before anything is raised, so a survivor never keeps
        a stale reply in its channel.  Unresponsive owners raise
        :class:`PeerLoss` (dead or hung), an error reply
        :class:`BackendError`; otherwise returns the reply payloads in
        owner order and the bytes sent."""
        dead: List[Peer] = []
        hung: List[Peer] = []
        waiting: List[Peer] = []
        sent = 0
        for peer, ranks in self._owners:
            if peer in skip:
                continue
            try:
                sent += peer.send(message_for(ranks))
            except BackendError:
                dead.append(peer)
                continue
            waiting.append(peer)
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        replies: List[Tuple[str, Any]] = []
        for peer in waiting:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                replies.append(peer.recv(remaining))
            except PeerTimeout:
                hung.append(peer)
            except BackendError:
                dead.append(peer)
        if dead or hung:
            raise PeerLoss(dead, hung)
        errors = [str(p) for tag, p in replies if tag == "err"]
        if errors:
            # the command itself raised — an application bug, not a
            # peer loss; retrying would fail identically
            raise BackendError(
                f"{what} failed on {len(errors)} "
                f"{self._pool.peer_noun}(s):\n" + "\n".join(errors)
            )
        for tag, payload in replies:
            if tag != "ok":  # "err-decode"
                raise _StepUndecodable(str(payload))
        return [payload for _tag, payload in replies], sent

    def _drop_remote_state(self, skip: AbstractSet[Peer]) -> Set[Peer]:
        """Close the session on every owner outside ``skip``, bounded
        by the heartbeat timeout; returns the owners that did not
        acknowledge (lost as well, as far as a rebuild goes)."""
        try:
            self._exchange(
                "close",
                lambda ranks: ("close", self._sid),
                self._pool.supervisor.heartbeat_timeout_s,
                skip,
            )
        except PeerLoss as loss:
            return loss.peers
        except BackendError:
            pass  # an owner that answers with an error is still in step
        return set()

    def _map_owners(self) -> int:
        """Spread the ranks round-robin over the pool's members;
        returns how many ranks changed owner."""
        peers = self._pool.members()
        used = min(len(peers), self.size)
        self._owners = [
            (
                peers[w],
                [r for r in range(self.size) if r % used == w],
            )
            for w in range(used)
        ]
        previous = self._rank_owner
        self._rank_owner = {
            rank: peer.name
            for peer, ranks in self._owners
            for rank in ranks
        }
        return sum(
            1
            for rank, owner in previous.items()
            if self._rank_owner.get(rank) != owner
        )

    def _establish(self, lost: Set[Peer]) -> int:
        """(Re)build the session on the pool — the one path behind the
        first open, recovery and adoption: quiesce the surviving
        owners, replace ``lost`` peers, re-map the ranks, open, and
        replay the history so every owner's per-rank state is
        indistinguishable from having been there all along.  A peer
        lost on the way raises :class:`PeerLoss`.  Returns the number
        of ranks that changed owner."""
        lost = lost | self._drop_remote_state(lost)
        if lost:
            self.tracer.count("worker_respawns", len(lost))
            self.tracer.count("reconnects", self._pool.replace(lost))
        migrated = self._map_owners()
        self._exchange(
            "open",
            lambda ranks: (
                "open", self._sid, self.size, self._shared_input,
                self._trace,
            ),
            None,
        )
        if self._history:
            self._exchange(
                "replay",
                lambda ranks: (
                    "replay",
                    self._sid,
                    [
                        (
                            hist_fn,
                            hist_arg,
                            [(r, list(hist_inboxes[r])) for r in ranks],
                        )
                        for hist_fn, hist_arg, hist_inboxes
                        in self._history
                    ],
                ),
                None,
            )
        self._mode = "remote"
        return migrated

    def _join_pool(self) -> None:
        """Before a step's first attempt: open the session on the pool
        (first step), or adopt peers that joined since the last step."""
        if self._mode == "pending":
            self._establish(set())
            return
        fresh = self._pool.joined()
        if fresh:
            migrated = self._establish(set())
            with self.tracer.span("distributed"):
                self.tracer.count("agents_joined", len(fresh))
                self.tracer.count("ranks_migrated", migrated)

    def _leave_pool(self) -> None:
        self._owners = []
        self._rank_owner = {}

    # -- supersteps ----------------------------------------------------
    def _run_step(
        self, plain: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        noun = self._pool.peer_noun
        # injected faults fire on the first attempt only: retries,
        # replays and a degraded finish run the plain superstep
        fn = plain
        armed = self._pool._arm(next(self._pool._steps), self.size)
        if armed:
            self.tracer.count("faults_injected", len(armed))
            fn = ChaosStep(plain, armed)
        if self._mode == "local":
            return self._run_local(fn, arg, inboxes)
        try:
            pickle.dumps((fn, arg), protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            if self._mode == "pending":
                self._fall_back_local(plain, exc)
                return self._run_local(fn, arg, inboxes)
            raise BackendError(
                "superstep function/argument is not picklable and the "
                "session already has remote per-rank state; use "
                "module-level superstep functions"
            ) from exc
        cfg = self._pool.supervisor
        loss: Optional[PeerLoss] = None
        attempt = 0
        delay = cfg.backoff_base_s
        while True:
            try:
                if loss is None:
                    self._join_pool()
                else:
                    try:
                        with self.tracer.span("recovery"):
                            self.tracer.count("step_retries", 1)
                            self._count_loss(loss)
                            migrated = self._establish(loss.peers)
                            self.tracer.count("ranks_migrated", migrated)
                            time.sleep(delay)
                    except BackendError as exc:
                        # the pool could not be rebuilt (e.g. every
                        # agent is gone and nobody reconnected)
                        return self._surrender(
                            loss, plain, arg, inboxes,
                            f"the pool cannot be rebuilt: {exc}",
                        )
                    delay *= cfg.backoff_factor
                    fn = plain
                outcomes = self._dispatch(fn, arg, inboxes)
            except _StepUndecodable as exc:
                if self._history:
                    raise BackendError(
                        f"{noun}s cannot decode the superstep (its "
                        f"module is not importable on the {noun} hosts) "
                        "and the session already has remote per-rank "
                        f"state:\n{exc}"
                    ) from None
                # nothing committed remotely yet: run in-process
                self._drop_remote_state(set())
                self._leave_pool()
                self._fall_back_local(
                    plain,
                    f"its module is not importable on the {noun} hosts",
                )
                return self._run_local(fn, arg, inboxes)
            except PeerLoss as exc:
                loss = exc
                attempt += 1
                if attempt <= cfg.max_retries:
                    continue
                return self._surrender(
                    loss, plain, arg, inboxes,
                    f"the retry budget ({cfg.max_retries}) is exhausted",
                )
            self._history.append(
                (plain, arg, [list(box) for box in inboxes])
            )
            return outcomes

    def _dispatch(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        """One dispatch attempt: ship the step to every owner, collect
        the replies under the step deadline, account the traffic."""
        received_before = self._pool.bytes_recv
        payloads, sent = self._exchange(
            "superstep",
            lambda ranks: (
                "step", self._sid, fn, arg,
                [(r, inboxes[r]) for r in ranks],
            ),
            self._pool.supervisor.step_deadline_s,
        )
        by_rank: Dict[int, RankOutcome] = {}
        for payload in payloads:
            for rank, value, sends, records, span_dict in payload:
                spans = (
                    Span.from_dict(span_dict)
                    if span_dict is not None
                    else None
                )
                by_rank[rank] = RankOutcome(value, sends, records, spans)
        with self.tracer.span("distributed"):
            self.tracer.count("bytes_sent", sent)
            self.tracer.count(
                "bytes_recv", self._pool.bytes_recv - received_before
            )
        return [by_rank[rank] for rank in range(self.size)]

    # -- giving up -----------------------------------------------------
    def _count_loss(self, loss: PeerLoss) -> None:
        self.tracer.count("worker_deaths", len(loss.dead))
        self.tracer.count("deadline_timeouts", len(loss.hung))

    def _surrender(
        self,
        loss: PeerLoss,
        fn: StepFn,
        arg: Any,
        inboxes: List[List[Message]],
        reason: str,
    ) -> List[RankOutcome]:
        """The retry budget is exhausted or the pool is beyond
        rebuilding (``reason`` says which): leave the pool healthy for
        other sessions, then finish the step in-process."""
        pool = self._pool
        warnings.warn(
            f"{pool.name} backend: superstep lost {len(loss.peers)} "
            f"{pool.peer_noun}(s) ({loss}) and {reason}; the session "
            "degrades to in-process serial execution.",
            RuntimeWarning,
            stacklevel=6,
        )
        with self.tracer.span("recovery"):
            self._count_loss(loss)
            lost = loss.peers
            self.tracer.count("worker_respawns", len(lost))
            self.tracer.count("reconnects", pool.replace(lost))
            self._drop_remote_state(lost)
            self._leave_pool()
            self.tracer.count("ranks_degraded", self.size)
            self._mode = "local"
            self._rebuild_local_states()
        # ``fn`` is the plain superstep: an injected fault fired on the
        # remote attempt already
        return self._run_local(fn, arg, inboxes)

    # ------------------------------------------------------------------
    def _close(self) -> None:
        try:
            self._drop_remote_state(set())
        finally:
            self._leave_pool()
            self._local_states = []
            self._history = []


# ----------------------------------------------------------------------
# command loop (peer side)
# ----------------------------------------------------------------------

class _ServedSession:
    """Everything a peer holds for one open session."""

    __slots__ = ("shared", "states", "size", "trace")

    def __init__(
        self, shared: Mapping[str, Any], size: int, trace: bool
    ) -> None:
        self.shared = read_only_shared(shared)
        self.states: Dict[int, Dict[str, Any]] = {}
        self.size = size
        self.trace = trace

    def run(
        self, fn: StepFn, arg: Any, tasks: List[Tuple[int, List[Message]]],
        trace: bool,
    ) -> List[RankOutcome]:
        return [
            run_rank_step(
                fn, arg, rank, self.size, self.shared,
                self.states.setdefault(rank, {}), inbox, trace,
            )
            for rank, inbox in tasks
        ]


def serve_commands(chan: Channel) -> None:
    """Command loop of one peer (runs in the worker/agent process).

    ``chan`` raises ``EOFError`` / ``OSError`` / ``WireError`` once the
    coordinator is gone, which ends the loop, as does a ``shutdown``
    command.  The caller closes the channel.
    """
    sessions: Dict[int, _ServedSession] = {}
    while True:
        try:
            msg, _nbytes = chan.recv()
        except (EOFError, OSError, WireError):
            break
        except Exception:
            # the frames were fully consumed but the payload would not
            # unpickle (typically: the superstep's module is not
            # importable on this host) — the stream is still at a
            # message boundary, so report and keep serving
            try:
                chan.send(("err-decode", traceback.format_exc()))
                continue
            except OSError:  # pragma: no cover - coordinator gone
                break
        tag = msg[0]
        if tag == "shutdown":
            break
        reply: Tuple[str, Any]
        try:
            if tag == "ping":
                reply = ("ok", "pong")
            elif tag == "open":
                _, sid, size, shared, trace = msg
                sessions[sid] = _ServedSession(shared, size, trace)
                reply = ("ok", None)
            elif tag == "replay":
                # deterministic state reconstruction after a respawn /
                # adoption: re-execute the session's successful step
                # history for this peer's ranks, discarding the
                # outcomes (they were already merged when the steps
                # first succeeded)
                _, sid, entries = msg
                for fn, arg, tasks in entries:
                    sessions[sid].run(fn, arg, tasks, False)
                reply = ("ok", None)
            elif tag == "step":
                _, sid, fn, arg, tasks = msg
                sess = sessions[sid]
                reply = (
                    "ok",
                    [
                        (
                            rank,
                            out.value,
                            out.sends,
                            out.records,
                            out.spans.to_dict()
                            if out.spans is not None
                            else None,
                        )
                        for (rank, _inbox), out in zip(
                            tasks, sess.run(fn, arg, tasks, sess.trace)
                        )
                    ],
                )
            elif tag == "close":
                _, sid = msg
                sessions.pop(sid, None)
                reply = ("ok", None)
            else:
                reply = ("err", f"unknown command {tag!r}")
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            chan.send(reply)
        except OSError:  # the coordinator is gone
            break
