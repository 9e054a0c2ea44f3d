"""Tests for the pluggable SPMD execution backends.

The contract under test: every backend runs the same superstep
protocol (messages visible next step, self-sends dropped, per-rank
state persistent) and produces *bit-identical* results, ledgers, and
merged spans — the serial backend is the reference, the thread and
process backends must be indistinguishable from it.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.runtime.backends import (
    BACKEND_ENV,
    Backend,
    BackendError,
    ProcessBackend,
    SerialBackend,
    SpmdSession,
    ThreadBackend,
    build_backend,
    resolve_backend,
    set_default_backend,
)
from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps


# ----------------------------------------------------------------------
# module-level supersteps (picklable, usable on the process pool)
# ----------------------------------------------------------------------


def _ring_send(ctx):
    dst = (ctx.rank + 1) % ctx.size
    ctx.send(dst, ("hello", ctx.rank), phase="ring", items=1)
    ctx.state["sent_to"] = dst


def _ring_recv(ctx):
    got = ctx.inbox()
    return (ctx.rank, ctx.state["sent_to"], got)


def _sum_shared(ctx, scale):
    return float(ctx.shared["values"][ctx.rank :: ctx.size].sum()) * scale


def _traced(ctx):
    with ctx.span("work"):
        ctx.count("visits", 1)
    return ctx.rank


def _boom(ctx):
    if ctx.rank == 1:
        raise RuntimeError("rank 1 explodes")
    return ctx.rank


def _all_backends():
    return [SerialBackend(), ThreadBackend(workers=2),
            ProcessBackend(workers=2)]


# ----------------------------------------------------------------------
# resolution and validation
# ----------------------------------------------------------------------


class TestResolution:
    def test_make_backend_names(self):
        assert isinstance(build_backend("serial"), SerialBackend)
        assert isinstance(build_backend("thread"), ThreadBackend)
        assert isinstance(build_backend("process"), ProcessBackend)

    def test_make_backend_spec_with_workers(self):
        be = build_backend("process:3")
        assert be.workers == 3

    def test_make_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            build_backend("gpu")

    def test_make_backend_bad_workers(self):
        with pytest.raises(ValueError, match="worker count"):
            build_backend("process:0")
        with pytest.raises(ValueError, match="invalid worker count"):
            build_backend("thread:lots")

    def test_resolve_passthrough_and_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        be = SerialBackend()
        assert resolve_backend(be) is be
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_make_backend_instance_passthrough(self):
        """Regression: an already-constructed backend instance must
        pass through ``build_backend`` untouched (it used to crash with
        an AttributeError on ``spec.partition``), so a pooled backend
        can be reused across jobs without re-resolving precedence or
        spinning up a second pool."""
        be = ThreadBackend(workers=1)
        try:
            assert build_backend(be) is be
            assert resolve_backend(be) is be
        finally:
            be.close()

    def test_instance_reused_across_repeated_resolution(self):
        """Resolving the same instance many times (one resolution per
        job, as the service engine's job loop does) never constructs a
        new backend."""
        be = ThreadBackend(workers=1)
        try:
            resolved = {id(resolve_backend(build_backend(be)))
                        for _ in range(5)}
            assert resolved == {id(be)}
        finally:
            be.close()

    def test_resolve_set_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        be = ThreadBackend(workers=1)
        set_default_backend(be)
        try:
            assert resolve_backend(None) is be
        finally:
            set_default_backend(None)
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "thread:2")
        resolved = resolve_backend(None)
        assert isinstance(resolved, ThreadBackend)


class TestValidation:
    def test_session_size_must_be_positive(self):
        with pytest.raises(ValueError, match="size must be >= 1"):
            SpmdSession(0, None, None)
        for be in _all_backends():
            with be:
                with pytest.raises(ValueError, match=">= 1"):
                    be.open_session(0)
                with pytest.raises(ValueError, match=">= 1"):
                    be.open_session(-3)

    def test_send_validation(self):
        be = SerialBackend()
        with be.open_session(2) as sess:

            def bad_dst(ctx, _arg):
                ctx.send(7, None, phase="p", items=1)

            with pytest.raises(ValueError, match="out of range"):
                sess.step(bad_dst)


# ----------------------------------------------------------------------
# cross-backend equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_ring_program_identical_everywhere(self):
        reference = None
        for be in _all_backends():
            with be:
                ledger = CommLedger()
                results = run_supersteps(
                    4, [_ring_send, _ring_recv], ledger=ledger, backend=be
                )
                outcome = (results[1], ledger.summary())
                if reference is None:
                    reference = outcome
                else:
                    assert outcome == reference, be.name
        # every rank got exactly the message from its predecessor
        for rank, sent_to, got in reference[0]:
            assert sent_to == (rank + 1) % 4
            assert got == [((rank - 1) % 4, ("hello", (rank - 1) % 4))]
        assert reference[1] == {"ring": (4, 4)}

    def test_shared_arrays_reach_every_rank(self):
        values = np.arange(1000, dtype=float)
        expect = [
            float(values[r::3].sum()) * 2.0 for r in range(3)
        ]
        for be in _all_backends():
            with be:
                with be.open_session(3, shared={"values": values}) as s:
                    assert s.step(_sum_shared, 2.0) == expect

    def test_state_persists_across_steps(self):
        for be in _all_backends():
            with be:
                results = run_supersteps(3, [_ring_send, _ring_recv], backend=be)
                for rank, sent_to, _got in results[1]:
                    assert sent_to == (rank + 1) % 3

    def test_spans_merge_per_rank(self):
        for be in _all_backends():
            with be:
                tracer = Tracer()
                with tracer.span("run"):
                    run_supersteps(4, [_traced], backend=be, tracer=tracer)
                root = tracer.finish()
                work = root.find("run/work")
                assert work is not None, be.name
                assert work.n_calls == 4
                assert work.counters["visits"] == 4


# ----------------------------------------------------------------------
# a multi-round protocol: coordinator decisions between supersteps
# ----------------------------------------------------------------------

_RING_ROUNDS = 14
_RING_MOD = 1_000_003


def _ring_seed(ctx, _arg):
    ctx.state["acc"] = ctx.rank + 1
    ctx.state["rounds"] = 0


def _ring_fold(ctx, stride):
    """Fold the inbox into resident state, pass the result ``stride``
    ranks on (a stride of ``size`` is a self-send: dropped, uncounted)."""
    acc = ctx.state["acc"]
    for src, value in ctx.inbox():
        acc = (acc * 31 + value + src) % _RING_MOD
    acc = (acc + stride) % _RING_MOD
    ctx.state["acc"] = acc
    ctx.state["rounds"] += 1
    ctx.send(
        (ctx.rank + stride) % ctx.size, acc,
        phase=f"ring-{stride % 3}", items=1 + acc % 5,
    )
    return acc


def _ring_state(ctx, _arg):
    return (dict(ctx.state), ctx.inbox())


def _run_ring_protocol(backend, size=5, tracer=None):
    """``_RING_ROUNDS`` supersteps in one session; the coordinator picks
    each round's stride from the values the previous round returned."""
    ledger = CommLedger()
    with backend.open_session(size, ledger=ledger, tracer=tracer) as sess:
        sess.step(_ring_seed)
        stride = 1
        values, strides = [], []
        for _round in range(_RING_ROUNDS):
            strides.append(stride)
            values.append(sess.step(_ring_fold, stride))
            stride = 1 + max(values[-1]) % size
        final = sess.step(_ring_state)
    per_rank = (dict(ledger.sent_by_rank), dict(ledger.received_by_rank))
    return values, strides, final, ledger.summary(), per_rank


class TestMultiRoundProtocol:
    """Many supersteps with ``ctx.state`` resident throughout and the
    coordinator deciding between them — the session shape the contact
    search (two supersteps) never exercises."""

    def test_identical_to_serial_on_every_backend(self, spmd_backend):
        reference = _run_ring_protocol(SerialBackend())
        values, strides, final, summary, _per_rank = reference
        assert len(values) == _RING_ROUNDS >= 12
        assert 5 in strides  # a self-send round happened ...
        assert sum(m for m, _items in summary.values()) < 5 * _RING_ROUNDS
        assert all(st["rounds"] == _RING_ROUNDS for st, _inbox in final)
        assert _run_ring_protocol(spmd_backend) == reference

    def test_identical_under_the_chaos_ci_fault_plan(self):
        tracer = Tracer()
        with build_backend(
            "process://?workers=2&faults=kill@2.1,slow@5.0:0.02"
        ) as pool:
            with tracer.span("run"):
                outcome = _run_ring_protocol(pool, tracer=tracer)
        assert outcome == _run_ring_protocol(SerialBackend())
        # the kill at global step 2 and the slow-down at step 5 both fired
        assert tracer.finish().find("run").counters["faults_injected"] == 2


# ----------------------------------------------------------------------
# the superstep contract: ranks only read ctx.shared
# ----------------------------------------------------------------------


def _write_shared_element(ctx, _arg):
    ctx.shared["values"][ctx.rank] = -1.0


def _assign_shared_key(ctx, _arg):
    ctx.shared["rank"] = ctx.rank


class TestSharedIsReadOnly:
    """A superstep that writes ``ctx.shared`` fails with a typed error on
    every backend — in a peer process the error's traceback comes back
    inside a :class:`BackendError` — and the caller's arrays keep their
    flags and their bytes."""

    @pytest.mark.parametrize(
        "step, error",
        [
            (_write_shared_element,
             "ValueError: assignment destination is read-only"),
            (_assign_shared_key,
             "TypeError: 'mappingproxy' object does not support item "
             "assignment"),
        ],
        ids=["array-element", "new-key"],
    )
    def test_write_raises_and_leaves_the_callers_arrays_alone(
        self, spmd_backend, step, error
    ):
        values = np.arange(12, dtype=np.float64)
        before = values.tobytes()
        with pytest.raises((ValueError, TypeError, BackendError)) as err:
            with spmd_backend.open_session(
                3, shared={"values": values}
            ) as sess:
                sess.step(step)
        if isinstance(err.value, BackendError):
            assert error in str(err.value)
        else:
            kind, _, message = error.partition(": ")
            assert (type(err.value).__name__, str(err.value)) == (
                kind, message,
            )
        assert values.flags.writeable
        assert values.tobytes() == before


# ----------------------------------------------------------------------
# process-backend specifics
# ----------------------------------------------------------------------


class TestProcessBackend:
    def test_closure_falls_back_with_warning(self):
        captured = {}

        def closure_step(ctx):  # not picklable: a closure
            # the capture is the point — it proves the in-process
            # fallback (which runs ranks sequentially) actually ran
            captured.setdefault("ranks", []).append(ctx.rank)
            return ctx.rank * 10

        with ProcessBackend(workers=2) as be:
            with pytest.warns(RuntimeWarning, match="not picklable"):
                results = run_supersteps(3, [closure_step], backend=be)
        assert results[0] == [0, 10, 20]
        assert captured["ranks"] == [0, 1, 2]  # ran in-process

    def test_worker_exception_propagates(self):
        with ProcessBackend(workers=2) as be:
            with pytest.raises(BackendError, match="rank 1 explodes"):
                run_supersteps(2, [_boom], backend=be)

    def test_pool_is_reused_across_sessions(self):
        with ProcessBackend(workers=2) as be:
            run_supersteps(2, [_traced], backend=be)
            first = {h.proc.pid for h in be._pool}
            run_supersteps(4, [_traced], backend=be)
            assert {h.proc.pid for h in be._pool} == first

    def test_backend_error_is_picklable(self):
        err = BackendError("boom")
        assert str(pickle.loads(pickle.dumps(err))) == "boom"

    def test_more_ranks_than_workers(self):
        with ProcessBackend(workers=2) as be:
            ledger = CommLedger()
            results = run_supersteps(
                7, [_ring_send, _ring_recv], ledger=ledger, backend=be
            )
            assert [r for r, _s, _g in results[1]] == list(range(7))
            assert ledger.summary() == {"ring": (7, 7)}


class TestBackendProtocol:
    def test_base_backend_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Backend().open_session(1)

    def test_session_rejects_use_after_close(self):
        sess = SerialBackend().open_session(2)
        sess.close()
        with pytest.raises(BackendError, match="closed"):
            sess.step(_traced)

    def test_env_propagates_to_subprocess(self):
        """The documented way to run the whole suite on a backend: a
        child process started with ``$REPRO_BACKEND`` resolves that
        backend (a thread backend starts no pool until a session)."""
        env = dict(
            os.environ,
            **{BACKEND_ENV: "thread:2"},
            PYTHONPATH=os.pathsep.join(sys.path),
        )
        child = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.runtime.backends import resolve_backend; "
                "b = resolve_backend(); print(f'{b.name}:{b.workers}')",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "thread:2"


class TestSharedPlanReuse:
    """A session's ``shared`` arrays ride inline in its ``open``
    message, so consecutive, concurrent and recovered sessions on one
    pool each see exactly the values they were opened with (the class
    keeps the name of the shared-memory plan these scenarios used to
    exercise)."""

    @staticmethod
    def _step_shared(step):
        return {
            "values": np.arange(8, dtype=np.float64) * (step + 1),
            "flags": np.array([step, step + 1], dtype=np.int64),
            "label": f"step-{step}",
        }

    def test_segment_names_stable_across_steps(self):
        # the driver's step loop: same layout, fresh values, one
        # session per step
        with ProcessBackend(workers=2) as be:
            for step in range(3):
                shared = self._step_shared(step)
                with be.open_session(2, shared=shared) as sess:
                    out = sess.step(_sum_shared, 1.0)
                    assert sum(out) == float(shared["values"].sum())

    def test_layout_change_retires_plan(self):
        with ProcessBackend(workers=2) as be:
            with be.open_session(2, shared=self._step_shared(0)) as s1:
                assert sum(s1.step(_sum_shared, 1.0)) == 28.0
            changed = {"values": np.arange(4, dtype=np.float64)}
            with be.open_session(2, shared=changed) as s2:
                assert sum(s2.step(_sum_shared, 1.0)) == 6.0

    def test_concurrent_sessions_fall_back_to_owned_segments(self):
        # two live sessions on the same workers must not see each
        # other's arrays
        with ProcessBackend(workers=2) as be:
            first, second = self._step_shared(0), self._step_shared(1)
            with be.open_session(2, shared=first) as s1:
                s1.step(_sum_shared, 1.0)
                with be.open_session(2, shared=second) as s2:
                    out = s2.step(_sum_shared, 1.0)
                    assert sum(out) == float(second["values"].sum())
                out = s1.step(_sum_shared, 1.0)
                assert sum(out) == float(first["values"].sum())

    def test_plan_survives_worker_recovery(self):
        # killing a worker mid-session exercises the recovery re-open,
        # which must hand the replacement the same shared values
        with ProcessBackend(workers=2) as be:
            with be.open_session(2, shared=self._step_shared(0)) as s1:
                s1.step(_sum_shared, 1.0)
                victim = be._pool[0]
                victim.proc.terminate()
                victim.proc.join(timeout=5)
                out = s1.step(_sum_shared, 2.0)
                assert sum(out) == 2.0 * float(
                    self._step_shared(0)["values"].sum()
                )
            shared = self._step_shared(1)
            with be.open_session(2, shared=shared) as s2:
                out = s2.step(_sum_shared, 1.0)
                assert sum(out) == float(shared["values"].sum())
