"""SM001 fixture: illegal ``.transition(...)`` call sites.

The transition table is a copy of the real
``repro.service.queue._TRANSITIONS`` bent so that every kind of
call-site diagnostic has something to point at: ``running`` no longer
leads to ``cancelled`` (nor to ``expired``, which is gone), and a
state is declared that no edge enters (``orphan``).  The table's own
shape is nobody's business here — the real table's shape is asserted
beside it, in ``tests/service/test_queue.py``.  Line numbers below are
pinned by ``tests/analysis/golden/service_fixtures.*``.

``settle`` seeds the call-site diagnostics (SM001): an illegal
consecutive pair (``running -> cancelled`` is not an edge), a
transition to an unknown state, and a transition into a state no edge
ever enters.
"""

from __future__ import annotations

_TRANSITIONS = {
    "queued": ("running", "cancelled"),
    "running": ("done", "failed"),
    "done": (),
    "failed": (),
    "cancelled": (),
    "orphan": ("done",),
}

_TERMINAL = ("done", "failed", "cancelled")


class LifecycleJob:
    def __init__(self) -> None:
        self.state = "queued"

    def transition(self, state: str) -> None:
        if state not in _TRANSITIONS.get(self.state, ()):
            raise RuntimeError(f"illegal transition {self.state} -> {state}")
        self.state = state


def settle(job: LifecycleJob) -> None:
    job.transition("running")  # clean on its own
    job.transition("cancelled")  # SM001: 'running' -> 'cancelled' not an edge
    job.transition("nowhere")  # SM001: not a state at all
    job.transition("orphan")  # SM001: no edge ever enters 'orphan'
