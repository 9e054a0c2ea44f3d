"""Straight-line superstep programs on one session: results per step
and rank, message delivery at the barrier, ledger accounting."""

from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps


class TestSpmdRun:
    def test_results_indexed_by_step_and_rank(self):
        results = run_supersteps(3, [lambda ctx: ctx.rank * 10])
        assert results == [[0, 10, 20]]

    def test_ring_exchange(self):
        """Classic ring: each rank sends its id right; superstep 2 sums
        what it received."""

        def send(ctx):
            ctx.send((ctx.rank + 1) % ctx.size, ctx.rank, "ring", 1)

        def receive(ctx):
            msgs = ctx.inbox()
            assert len(msgs) == 1
            src, payload = msgs[0]
            assert src == payload == (ctx.rank - 1) % ctx.size
            return payload

        results = run_supersteps(4, [send, receive])
        assert results[1] == [3, 0, 1, 2]

    def test_messages_not_visible_same_superstep(self):
        def step(ctx):
            ctx.send((ctx.rank + 1) % ctx.size, "x", "p", 1)
            return len(ctx.inbox())

        results = run_supersteps(2, [step])
        assert results[0] == [0, 0]

    def test_ledger_threading(self):
        led = CommLedger()

        def chatter(ctx):
            for dst in range(ctx.size):
                if dst != ctx.rank:
                    ctx.send(dst, None, "gossip", 2)

        run_supersteps(3, [chatter], led)
        assert led.messages("gossip") == 6
        assert led.items("gossip") == 12

    def test_all_to_all_volume_symmetry(self):
        """Each rank's sent total equals each rank's received total in a
        symmetric exchange."""
        led = CommLedger()

        def exchange(ctx):
            for dst in range(ctx.size):
                if dst != ctx.rank:
                    ctx.send(dst, None, "sym", 5)

        run_supersteps(4, [exchange], led)
        for r in range(4):
            assert led.sent_by_rank[("sym", r)] == 15
            assert led.received_by_rank[("sym", r)] == 15
