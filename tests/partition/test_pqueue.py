"""Tests for the updatable max-priority queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.pqueue import MaxPQ


class TestMaxPQ:
    def test_pop_order(self):
        pq = MaxPQ()
        for item, pri in [("a", 1.0), ("b", 3.0), ("c", 2.0)]:
            pq.insert(item, pri)
        assert [pq.pop()[0] for _ in range(3)] == ["b", "c", "a"]

    def test_update_overrides(self):
        pq = MaxPQ()
        pq.insert("a", 1.0)
        pq.insert("b", 2.0)
        pq.update("a", 5.0)
        assert pq.pop() == ("a", 5.0)

    def test_remove(self):
        pq = MaxPQ()
        pq.insert("a", 1.0)
        pq.insert("b", 2.0)
        pq.remove("b")
        assert "b" not in pq
        assert pq.pop() == ("a", 1.0)
        assert pq.pop() is None

    def test_remove_absent_is_noop(self):
        pq = MaxPQ()
        pq.remove("ghost")
        assert len(pq) == 0

    def test_peek_does_not_remove(self):
        pq = MaxPQ()
        pq.insert("x", 4.0)
        assert pq.peek() == ("x", 4.0)
        assert pq.peek() == ("x", 4.0)
        assert len(pq) == 1

    def test_len_tracks_live_items(self):
        pq = MaxPQ()
        pq.insert(1, 0.0)
        pq.insert(1, 2.0)  # update, not a second item
        assert len(pq) == 1

    def test_empty_pops_none(self):
        assert MaxPQ().pop() is None
        assert MaxPQ().peek() is None

    def test_fifo_tie_break(self):
        pq = MaxPQ()
        pq.insert("first", 1.0)
        pq.insert("second", 1.0)
        assert pq.pop()[0] == "first"

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.floats(-100, 100)),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_pops_match_dict_max(self, ops):
        """After arbitrary insert/updates, popping everything yields
        items in non-increasing priority order matching a dict model."""
        pq = MaxPQ()
        model = {}
        for item, pri in ops:
            pq.insert(item, pri)
            model[item] = pri
        popped = []
        while True:
            entry = pq.pop()
            if entry is None:
                break
            popped.append(entry)
        assert {i for i, _ in popped} == set(model)
        pris = [p for _, p in popped]
        assert pris == sorted(pris, reverse=True)
        for item, pri in popped:
            assert model[item] == pri
