"""Tests for supervised sessions (the process and tcp pools).

The contract under test: peer death or hang at any superstep — or
between sessions — is invisible in the results: the supervisor replaces
the lost peers and replays, and when the pool is beyond saving it
degrades to in-process serial execution (warning, never wrong answers).

The ``*Cases`` classes are the transport-parametrised suite: each is
instantiated once per transport — here for ``process``, in
``test_tcp.py`` for ``tcp`` (subclasses rather than
``pytest.mark.parametrize`` so the test ids of the two pre-merge suites
stay stable).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.obs.report import RunReport
from repro.obs.tracer import Tracer
from repro.runtime.backends import (
    ProcessBackend,
    SerialBackend,
    SupervisorConfig,
    TCPBackend,
    build_backend,
)
from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps

ACCEPT_TIMEOUT = 30.0  # generous: CI machines can be slow to fork


def pool_backend(transport, faults="", **supervisor):
    """A two-peer backend on ``transport`` injecting ``faults``, with
    fast test timings."""
    supervisor.setdefault("backoff_base_s", 0.01)
    supervisor.setdefault("shutdown_grace_s", 1.0)
    cfg = SupervisorConfig(**supervisor)
    if transport == "process":
        return ProcessBackend(workers=2, supervisor=cfg, faults=faults)
    return TCPBackend(
        workers=2, supervisor=cfg, accept_timeout=ACCEPT_TIMEOUT,
        faults=faults,
    )


def kill_one_peer(backend):
    """SIGKILL the first pooled peer and wait until it is gone."""
    if isinstance(backend, ProcessBackend):
        proc = backend._pool[0].proc
        proc.kill()
        proc.join(timeout=5)
    else:
        proc = backend._spawned[0]
        proc.kill()
        proc.wait(timeout=5)


# ----------------------------------------------------------------------
# module-level supersteps.  Faulty behaviour is gated on actually being
# in a pool worker / agent, so the degraded (in-process) replay runs
# clean and, critically, never kills the pytest process itself.
# ----------------------------------------------------------------------


def _in_pool_worker():
    return multiprocessing.current_process().name.startswith("repro-spmd-")


def _bump(ctx):
    ctx.state["n"] = ctx.state.get("n", 0) + 1
    ctx.send((ctx.rank + 1) % ctx.size, ctx.state["n"], phase="p", items=1)


def _bump_step(ctx, arg):
    _bump(ctx)


def _die_once_rank1(ctx):
    marker = ctx.shared["marker"]
    if ctx.rank == 1 and _in_pool_worker() and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(5)
    _bump(ctx)


def _hang_once_rank0(ctx):
    marker = ctx.shared["marker"]
    if ctx.rank == 0 and _in_pool_worker() and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(30.0)
    _bump(ctx)


def _die_always_rank1(ctx):
    if ctx.rank == 1 and _in_pool_worker():
        os._exit(5)
    _bump(ctx)


def _report(ctx):
    got = sorted(p for _s, p in ctx.inbox())
    return (ctx.rank, ctx.state.get("n", 0), got)


def _report_step(ctx, arg):
    return _report(ctx)


def _run(backend, steps, shared=None, tracer=None):
    ledger = CommLedger()
    results = run_supersteps(
        3, steps, ledger=ledger, backend=backend, tracer=tracer,
        shared=shared,
    )
    return results, ledger


def _counter_totals(tracer):
    totals = {}
    for _path, span in tracer.finish().walk():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


STEPS = (_bump, _die_once_rank1, _report)


def _reference(steps):
    return _run(SerialBackend(), steps, shared={"marker": os.devnull})


# ----------------------------------------------------------------------
# the transport-parametrised suite
# ----------------------------------------------------------------------


class RespawnCases:
    transport = None

    def test_kill_mid_run_matches_serial(self, tmp_path):
        """Rank 1's peer dies once mid-step; the supervisor replaces
        it, replays history, retries, and the run is bit-identical."""
        ref_results, ref_ledger = _reference(STEPS)
        tracer = Tracer()
        backend = pool_backend(self.transport, max_retries=2)
        try:
            results, ledger = _run(
                backend, STEPS,
                shared={"marker": str(tmp_path / "died")},
                tracer=tracer,
            )
            assert backend.reconnects >= 1
        finally:
            backend.close()
        assert results == ref_results
        assert ledger.phases == ref_ledger.phases
        assert ledger.sent_by_rank == ref_ledger.sent_by_rank
        counters = _counter_totals(tracer)
        assert counters.get("worker_deaths", 0) >= 1
        assert counters.get("worker_respawns", 0) >= 1
        assert counters.get("reconnects", 0) >= 1
        assert counters.get("step_retries", 0) >= 1
        assert "ranks_degraded" not in counters

    def test_replay_preserves_earlier_state(self, tmp_path):
        """Per-rank state accumulated in steps *before* the crash
        survives the respawn (the recovery replays history)."""
        steps = (_bump, _bump, _die_once_rank1, _report)
        ref_results, _ = _reference(steps)
        backend = pool_backend(self.transport, max_retries=2)
        try:
            results, _ = _run(
                backend, steps, shared={"marker": str(tmp_path / "died")}
            )
        finally:
            backend.close()
        assert results == ref_results
        # state really did accumulate across the crash: n == 3
        assert all(n == 3 for _r, n, _g in results[-1])

    def test_hang_blows_deadline_and_recovers(self, tmp_path):
        """A hung rank trips the per-step deadline and is treated like
        a death: replace, replay, retry — well before the hang ends."""
        steps = (_bump, _hang_once_rank0, _report)
        ref_results, _ = _reference(steps)
        tracer = Tracer()
        backend = pool_backend(
            self.transport, step_deadline_s=1.5, max_retries=2
        )
        start = time.monotonic()
        try:
            results, _ = _run(
                backend, steps,
                shared={"marker": str(tmp_path / "hung")},
                tracer=tracer,
            )
        finally:
            backend.close()
        assert results == ref_results
        assert time.monotonic() - start < 20.0  # not the 30 s hang
        counters = _counter_totals(tracer)
        assert counters.get("deadline_timeouts", 0) >= 1
        assert counters.get("worker_respawns", 0) >= 1

    def test_killed_agent_respawned_bit_identical(self):
        """A fault-plan kill inside a peer surfaces in the run report's
        recovery and distributed totals, and nowhere else."""
        ref_results, ref_ledger = _reference((_bump, _bump, _report))
        backend = pool_backend(self.transport, faults="kill@1.1")
        tracer = Tracer()
        try:
            results, ledger = _run(
                backend, (_bump, _bump, _report), tracer=tracer
            )
            assert backend.reconnects >= 1
        finally:
            backend.close()
        assert results == ref_results
        assert ledger.summary() == ref_ledger.summary()
        report = RunReport.from_run(tracer, ledger)
        recovery = report.recovery_totals()
        assert recovery["worker_deaths"] >= 1
        assert recovery["step_retries"] >= 1
        assert report.distributed_totals()["reconnects"] >= 1

    def test_hung_agent_hits_deadline_and_recovers(self):
        ref_results, _ = _reference((_bump, _bump, _report))
        backend = pool_backend(
            self.transport, faults="hang@1.0:60",
            step_deadline_s=1.5, heartbeat_timeout_s=2.0,
        )
        tracer = Tracer()
        try:
            results, _ledger = _run(
                backend, (_bump, _bump, _report), tracer=tracer
            )
            assert backend.reconnects >= 1
        finally:
            backend.close()
        assert results == ref_results
        report = RunReport.from_run(tracer, CommLedger())
        assert report.recovery_totals()["deadline_timeouts"] >= 1


class DegradeCases:
    transport = None

    def test_persistent_failure_degrades_to_serial(self):
        """When retries are exhausted the session warns and finishes
        in-process — same results, ledger accounting preserved."""
        steps = (_bump, _die_always_rank1, _report)
        ref_results, ref_ledger = _reference(steps)
        tracer = Tracer()
        backend = pool_backend(self.transport, max_retries=1)
        try:
            with pytest.warns(RuntimeWarning, match="degrades"):
                results, ledger = _run(backend, steps, tracer=tracer)
            # the pool was left healthy for the next session
            assert all(backend.health_check().values())
            assert _run(backend, (_bump, _report))[0] == _reference(
                (_bump, _report)
            )[0]
        finally:
            backend.close()
        assert results == ref_results
        assert ledger.phases == ref_ledger.phases
        counters = _counter_totals(tracer)
        assert counters.get("ranks_degraded") == 3


def _ghost_step(monkeypatch):
    """A superstep that pickles by reference in this process but whose
    module no peer can import."""
    module = types.ModuleType("repro_test_ghost_steps")
    exec("def step(ctx, arg):\n    return ctx.rank * arg\n", module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module.step


class FallbackCases:
    transport = None

    def test_unpicklable_superstep_falls_back_with_warning(self):
        backend = pool_backend(self.transport)
        secret = 7

        def closure_step(ctx, arg):
            return ctx.rank * secret  # closure: not picklable by ref

        try:
            with backend.open_session(3) as session:
                with pytest.warns(RuntimeWarning, match="not picklable"):
                    values = session.step(closure_step)
            assert values == [0, 7, 14]
        finally:
            backend.close()

    def test_undecodable_superstep_falls_back_with_warning(
        self, monkeypatch
    ):
        """The step pickles here but the peers cannot import its
        module: nothing is committed remotely yet, so the session runs
        in-process — and the pool stays usable."""
        backend = pool_backend(self.transport)
        try:
            backend.members()  # the peers exist before the module does
            step = _ghost_step(monkeypatch)
            with backend.open_session(3) as session:
                with pytest.warns(RuntimeWarning, match="not importable"):
                    assert session.step(step, 7) == [0, 7, 14]
                assert session.step(step, 2) == [0, 2, 4]
            assert all(backend.health_check().values())
            assert _run(backend, (_bump, _report))[0] == _reference(
                (_bump, _report)
            )[0]
        finally:
            backend.close()


class TestRespawn(RespawnCases):
    transport = "process"


class TestDegrade(DegradeCases):
    transport = "process"


class TestLocalFallback(FallbackCases):
    transport = "process"


# ----------------------------------------------------------------------
# regression: a peer lost while the pool is idle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["process:2", "tcp://127.0.0.1:0:2"])
def test_peer_dead_between_sessions_is_replaced(spec):
    """The driver opens one session per contact step, so a peer that
    dies between two sessions (idle-time OOM kill) must be replaced by
    the next session's open — the same loss → replace → retry path as
    a step — not fail its first superstep."""
    steps = (_bump, _bump, _report)
    ref_results, ref_ledger = _reference(steps)
    backend = build_backend(spec)
    tracer = Tracer()
    try:
        assert _run(backend, steps)[0] == ref_results
        kill_one_peer(backend)
        results, ledger = _run(backend, steps, tracer=tracer)
    finally:
        backend.close()
    assert results == ref_results
    assert ledger.phases == ref_ledger.phases
    counters = _counter_totals(tracer)
    assert counters.get("worker_respawns", 0) >= 1
    assert "ranks_degraded" not in counters


def _wire_traffic(spec):
    """``(bytes_sent, bytes_recv)`` of one session — open, three steps,
    close — on a pool that is already up (tcp's handshake excluded)."""
    backend = build_backend(spec)
    try:
        backend.members()
        before = backend.bytes_sent, backend.bytes_recv
        with backend.open_session(
            4, shared={"label": "parity", "xs": np.arange(64.0)}
        ) as session:
            for step in (_bump_step, _bump_step, _report_step):
                session.step(step, 1)
        return (
            backend.bytes_sent - before[0],
            backend.bytes_recv - before[1],
        )
    finally:
        backend.close()


def test_both_pools_account_identical_traffic():
    """One channel, one framing: the same open + step sequence costs
    the same bytes on forked workers as on loopback agents."""
    sent, received = _wire_traffic("process:2")
    assert sent > 0 and received > 0
    assert _wire_traffic("tcp://127.0.0.1:0:2") == (sent, received)


# ----------------------------------------------------------------------
# process-pool health and shutdown
# ----------------------------------------------------------------------


class TestHealthCheck:
    def test_detects_dead_worker(self):
        backend = ProcessBackend(workers=2)
        try:
            _run(backend, (_bump, _report))  # spin the pool up
            health = backend.health_check(timeout=2.0)
            assert health and all(health.values())
            backend.members()[0].proc.terminate()
            time.sleep(0.2)
            health = backend.health_check(timeout=2.0)
            assert not all(health.values())
        finally:
            backend.close()

    def test_close_survives_dead_worker(self):
        backend = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(shutdown_grace_s=1.0,
                                        kill_grace_s=0.5),
        )
        try:
            _run(backend, (_bump, _report))
            backend.members()[0].proc.kill()
        finally:
            backend.close()  # must not hang or raise

    def test_session_close_with_stopped_worker_is_bounded(self):
        """A SIGSTOPped worker never acknowledges ``close``; the
        handshake gives up after the heartbeat timeout instead of
        hanging the caller."""
        cfg = SupervisorConfig(
            heartbeat_timeout_s=0.5, shutdown_grace_s=1.0,
            kill_grace_s=0.5,
        )
        backend = ProcessBackend(workers=2, supervisor=cfg)
        session = backend.open_session(3)
        victim = None
        try:
            session.step(_bump_step)
            victim = backend.members()[0].proc
            os.kill(victim.pid, signal.SIGSTOP)
            closer = threading.Thread(target=session.close, daemon=True)
            closer.start()
            closer.join(cfg.heartbeat_timeout_s + cfg.shutdown_grace_s)
            assert not closer.is_alive(), "session.close() hung"
        finally:
            if victim is not None:
                victim.kill()  # SIGKILL also ends a stopped process
            backend.close()


_COORDINATOR = """
import time
from repro.runtime.backends import ProcessBackend
pool = ProcessBackend(workers=2).members()
print(*(worker.proc.pid for worker in pool), flush=True)
time.sleep(60)
"""


def _exited(pid):
    """Gone, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat"
)
def test_workers_exit_when_coordinator_is_killed():
    """A SIGKILLed coordinator runs no shutdown: its workers must see
    end-of-stream and exit by themselves — a forked worker that kept
    its copy of the coordinator's socket end would wait forever."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    workers = []
    try:
        workers = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(workers) == 2
        coordinator.kill()
        coordinator.wait(timeout=5)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(_exited(pid) for pid in workers):
                break
            time.sleep(0.05)
        assert all(_exited(pid) for pid in workers)
    finally:
        coordinator.kill()
        coordinator.stdout.close()
        for pid in workers:
            if not _exited(pid):
                os.kill(pid, signal.SIGKILL)


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisorConfig(step_deadline_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(backoff_factor=0.5)

    def test_degrading_is_not_optional(self):
        """An exhausted retry budget always degrades; there is no
        switch that turns a lost peer into a failed step instead."""
        with pytest.raises(TypeError):
            SupervisorConfig(degrade=False)

    POOLS = pytest.mark.parametrize(
        "pool", ["process://", "tcp://127.0.0.1:0"], ids=["process", "tcp"]
    )

    @POOLS
    def test_deadline_from_spec(self, pool):
        """Both pools read ``deadline=`` the same way."""
        supervisor = build_backend(f"{pool}?deadline=2.5").supervisor
        assert supervisor.step_deadline_s == 2.5

    @POOLS
    def test_deadline_zero_disables(self, pool):
        """``deadline=0`` means no deadline."""
        supervisor = build_backend(f"{pool}?deadline=0").supervisor
        assert supervisor.step_deadline_s is None

    @POOLS
    def test_deadline_default(self, pool):
        """A pool spec without ``deadline=`` has the default policy."""
        plain = build_backend(pool).supervisor
        assert plain == SupervisorConfig()
        assert (plain.step_deadline_s, plain.max_retries) == (None, 2)
