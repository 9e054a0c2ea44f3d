"""Tests for communication accounting."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RunReport, Tracer
from repro.runtime.ledger import CommLedger


class TestCommLedger:
    def test_record_and_totals(self):
        led = CommLedger()
        led.record("fe", 0, 1, 10)
        led.record("fe", 1, 0, 5)
        led.record("contact", 0, 2, 3)
        assert led.items("fe") == 15
        assert led.messages("fe") == 2
        assert led.items("contact") == 3
        assert led.total_items() == 18

    def test_self_sends_not_counted(self):
        led = CommLedger()
        led.record("fe", 2, 2, 100)
        assert led.total_items() == 0
        assert led.messages("fe") == 0

    def test_unknown_phase_zero(self):
        led = CommLedger()
        assert led.items("nope") == 0
        assert led.messages("nope") == 0

    def test_copy_is_independent(self):
        led = CommLedger()
        led.record("fe", 0, 1, 10)
        led.record("contact", 2, 1, 4)
        point = led.copy()
        assert point == led
        assert point.summary() == led.summary()
        assert isinstance(point.sent_by_rank, defaultdict)
        assert isinstance(point.received_by_rank, defaultdict)
        led.record("fe", 1, 0, 5)
        led.record("new", 0, 3, 2)
        assert point.summary() == {"contact": (1, 4), "fe": (1, 10)}
        assert point.sent_by_rank == {("fe", 0): 10, ("contact", 2): 4}
        assert point.received_by_rank == {("fe", 1): 10, ("contact", 1): 4}
        # recording on the copy leaves the live ledger alone too
        point.record("fe", 3, 0, 1)
        assert led.items("fe") == 15
        assert led.sent_by_rank[("fe", 3)] == 0

    def test_per_rank_accounting_symmetric(self):
        led = CommLedger()
        led.record("x", 0, 1, 7)
        led.record("x", 1, 2, 3)
        sent = sum(led.sent_by_rank[("x", r)] for r in range(3))
        recv = sum(led.received_by_rank[("x", r)] for r in range(3))
        assert sent == recv == 10

    def test_max_rank_send(self):
        led = CommLedger()
        led.record("x", 0, 1, 7)
        led.record("x", 0, 2, 2)
        led.record("x", 1, 0, 4)
        assert led.max_rank_send("x", 3) == 9

    def test_max_rank_send_empty(self):
        assert CommLedger().max_rank_send("x", 4) == 0

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            CommLedger().record("x", 0, 1, -1)

    def test_summary(self):
        led = CommLedger()
        led.record("b", 0, 1, 2)
        led.record("a", 0, 1, 1)
        assert list(led.summary()) == ["a", "b"]
        assert led.summary()["b"] == (1, 2)


_MESSAGES = st.lists(
    st.tuples(
        st.sampled_from(["fe", "contact", "repartition"]),  # phase
        st.integers(0, 5),  # src
        st.integers(0, 5),  # dst
        st.integers(0, 40),  # items
    ),
    max_size=50,
)


@given(messages=_MESSAGES)
@settings(max_examples=50, deadline=None)
def test_property_per_rank_symmetry(messages):
    """For any record trace and every phase: total sent by all ranks ==
    total received == the phase's item total (self-sends vanish)."""
    led = CommLedger()
    expected = {}
    for phase, src, dst, items in messages:
        led.record(phase, src, dst, items)
        if src != dst:
            expected[phase] = expected.get(phase, 0) + items
    for phase in {m[0] for m in messages}:
        sent = sum(led.sent_by_rank[(phase, r)] for r in range(6))
        recv = sum(led.received_by_rank[(phase, r)] for r in range(6))
        assert sent == recv == led.items(phase) == expected.get(phase, 0)


@given(messages=_MESSAGES)
@settings(max_examples=50, deadline=None)
def test_property_run_report_totals_match_ledger(messages):
    """A RunReport built from any ledger reproduces its phase sums."""
    led = CommLedger()
    for phase, src, dst, items in messages:
        led.record(phase, src, dst, items)
    tracer = Tracer()
    with tracer.span("step"):
        pass
    report = RunReport.from_run(tracer, led)
    assert report.comm == led.summary()
    assert report.comm_total_items() == led.total_items()
    for phase, (msgs, items) in led.summary().items():
        assert report.comm_items(phase) == items == led.items(phase)
        assert msgs == led.messages(phase)
