"""No process outlives a run.

The runtime probes start processes the run does not hold a handle to:
``multiprocessing``'s resource tracker (started with the first
shared-memory segment, it ends only once its parent's pipe closes —
that is, *after* the parent exited) and one more tracker per forked
``process`` worker, orphaned when its worker ends.  ``run.py`` becomes
the subreaper of its descendants before anything starts, and before it
exits stops the tracker and waits for every child, killing what does
not end on its own.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from pathlib import Path
from typing import List

_PR_SET_CHILD_SUBREAPER = 36
#: how long a child may take to end by itself before it is killed
GRACE_S = 10.0


def adopt_orphans() -> None:
    """Orphaned descendants are re-parented to this process instead of
    to init, so :func:`stop_children` can wait for them (Linux; a no-op
    elsewhere)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def children() -> List[int]:
    """Pids of this process's live or unreaped children."""
    pids: List[int] = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in task.read_text().split()]
        except OSError:
            pass
    return pids


def _reap() -> bool:
    """Collect every child that has ended; ``False`` once none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def stop_children(grace_s: float = GRACE_S) -> None:
    """Stop the resource tracker, then wait until every child has
    ended; after ``grace_s`` the remaining ones are killed."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
    except Exception:
        pass  # not running, or already collected
    deadline = time.monotonic() + grace_s
    while _reap():
        if time.monotonic() > deadline:
            # again on every turn: a killed child's own children are
            # adopted only once it has ended
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
