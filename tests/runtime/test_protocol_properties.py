"""Property tests for the runtime protocols' conservation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backends import SerialBackend
from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps


def _send_mine(ctx, messages):
    """Superstep: every rank queues the messages it is the source of."""
    for src, dst, payload, phase, items in messages:
        if src == ctx.rank:
            ctx.send(dst, payload, phase=phase, items=items)


def _read_inbox(ctx, _arg):
    return (ctx.inbox(), ctx.inbox())


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),  # src
            st.integers(0, 5),  # dst
            st.integers(0, 50),  # items
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_ledger_conservation(messages):
    """For any message trace: per-phase, total sent == total received ==
    phase items, and self-sends vanish."""
    led = CommLedger()
    expected = sum(items for src, dst, items in messages if src != dst)
    with SerialBackend().open_session(6, ledger=led) as sess:
        sess.step(
            _send_mine,
            [(src, dst, None, "p", items) for src, dst, items in messages],
        )
    sent = sum(led.sent_by_rank[("p", r)] for r in range(6))
    recv = sum(led.received_by_rank[("p", r)] for r in range(6))
    assert sent == recv == led.items("p") == expected


@given(
    st.integers(2, 6),
    st.lists(st.integers(0, 30), min_size=2, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_property_inbox_delivers_everything_once(size, payloads):
    """Every queued message is delivered exactly once, to the right
    rank, after exactly one barrier."""
    messages = [
        (i % size, (i + 1) % size, ("msg", i, p), "x", 1)
        for i, p in enumerate(payloads)
    ]
    sent = [(dst, payload) for _src, dst, payload, _ph, _n in messages]
    with SerialBackend().open_session(size) as sess:
        assert sess.step(_send_mine, messages) == [None] * size
        inboxes = sess.step(_read_inbox)
        later = sess.step(_read_inbox)
    received = []
    for r, (msgs, again) in enumerate(inboxes):
        received.extend((r, payload) for _src, payload in msgs)
        assert again == []  # consumed
    assert sorted(received) == sorted(sent)
    assert later == [([], [])] * size  # nothing arrives twice


def test_supersteps_are_strictly_ordered():
    """No rank observes a later superstep's sends early.

    The cross-rank execution trace needs a shared list, so this test
    pins the serial backend, where the capture is well-defined.
    """
    trace = []

    def first(ctx):
        trace.append(("first", ctx.rank))
        ctx.send((ctx.rank + 1) % ctx.size, "a", "p", 1)

    def second(ctx):
        trace.append(("second", ctx.rank))
        assert len(ctx.inbox()) == 1

    run_supersteps(3, [first, second], backend="serial")
    names = [t[0] for t in trace]
    assert names == ["first"] * 3 + ["second"] * 3
