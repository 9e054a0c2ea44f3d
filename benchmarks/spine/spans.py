"""The benchmark's own span recorder.

This PR adds no spans to the program: the traced pass wraps the
benchmark's direct calls into each layer's public functions.  Spans
stay in memory and are written once, at exit, to
``out/trace-<workload>.json``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple


class SpanRecorder:
    """Spans as ``{id, name, parent, workload, start, end}`` (seconds
    since the recorder was created); the parent is the span that was
    open.  Single-threaded: the probes record from the main thread."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def call(
        self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Tuple[Any, float]:
        """Run ``fn`` under a span; returns ``(result, seconds)``."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        return result, record["end"] - record["start"]

    def self_times(self) -> Dict[int, float]:
        """Per span: duration minus the part its children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"])
                )
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children.get(s["id"], ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def unattributed_pct(self, name: str) -> float:
        """Share of all ``name`` spans' time not inside a child span."""
        self_times = self.self_times()
        total = sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )
        own = sum(
            self_times[s["id"]] for s in self.spans if s["name"] == name
        )
        return 100.0 * own / total

    def write(self, path: Path) -> None:
        self_times = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema": "repro.bench-spine.trace/1",
            "workload": self.workload,
            "spans": [
                dict(s, self_s=self_times[s["id"]]) for s in self.spans
            ],
        }))
