"""Metric summaries and the result documents a run writes."""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

SPINE_DIR = Path(__file__).resolve().parent
ROOT = SPINE_DIR.parents[1]
OUT_DIR = SPINE_DIR / "out"
SCHEMA = "repro.bench-spine/1"
WORKLOADS = ("fit_paper", "steps_paper", "mlrcb_paper", "service_mix")


def declared() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: the one place metric names, units,
    directions and bounds are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Sample count, median, min and inter-quartile range (plus the
    quartiles and p95 as diagnostics)."""
    xs = sorted(float(x) for x in samples)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return {
        "n": len(xs),
        "median": statistics.median(xs),
        "min": xs[0],
        "max": xs[-1],
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "p95": xs[min(len(xs) - 1, int(0.95 * len(xs)))],
    }


class Metrics:
    """Name → ``{value, unit, n, median, min, iqr, ...}``."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def samples(
        self, name: str, unit: str, samples: Iterable[float],
        scale: float = 1.0, value: Optional[float] = None,
        parts: Optional[Dict[str, float]] = None,
    ) -> None:
        """A metric summarised from ``samples``; its value is their
        median unless the caller aggregates them another way.  A value
        that averages ``parts`` which can move against each other
        carries them (same scale), for ``compare`` to gate each."""
        summary = summarize([s * scale for s in samples])
        if value is None:
            value = summary["median"]
        else:
            value = float(value) * scale
        self.values[name] = dict(summary, value=value, unit=unit)
        if parts:
            self.values[name]["parts"] = {
                label: float(v) * scale for label, v in parts.items()
            }

    def value(
        self, name: str, unit: str, value: float, n: int = 1,
        parts: Optional[Dict[str, float]] = None,
    ) -> None:
        """A count or a derived number (``n`` samples went into it)."""
        value = float(value)
        self.values[name] = {
            "value": value, "unit": unit, "n": n,
            "median": value, "min": value, "iqr": 0.0,
        }
        if parts:
            self.values[name]["parts"] = {
                label: float(v) for label, v in parts.items()
            }

    def scale_times(self, factor: float) -> None:
        """Express every time (unit ``s`` or ``ms``) at the reference
        machine speed (see ``speed.py``)."""
        for m in self.values.values():
            if m["unit"] not in ("s", "ms"):
                continue
            for key, value in m.items():
                if key == "parts":
                    m[key] = {label: v * factor for label, v in value.items()}
                elif key not in ("unit", "n"):
                    m[key] = value * factor

    def contract(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in self.values.items()
        }


def check_declared(section: str, metrics: Metrics) -> None:
    """A run prints exactly the metrics ``BENCHMARK.json`` declares,
    with the declared units."""
    want = {m["name"]: m["unit"] for m in declared()[section]}
    got = {name: m["unit"] for name, m in metrics.values.items()}
    if want != got:
        diff = sorted(set(want.items()) ^ set(got.items()))
        raise SystemExit(
            f"metrics disagree with BENCHMARK.json {section}: {diff}"
        )


def format_rows(metrics: Dict[str, Dict[str, Any]]) -> List[str]:
    """One row per metric: its value, then the sample count, median,
    min and inter-quartile range of the samples behind it."""
    rows = [
        f"  {'metric':<42}{'unit':>7}{'value':>13}{'n':>6}{'median':>13}"
        f"{'min':>13}{'iqr':>11}"
    ]
    for name, m in metrics.items():
        rows.append(
            f"  {name:<42}{m['unit']:>7}{m['value']:>13.5g}{m['n']:>6}"
            f"{m['median']:>13.5g}{m['min']:>13.5g}{m['iqr']:>11.4g}"
        )
        for label, value in m.get("parts", {}).items():
            rows.append(
                f"  {name + '[' + label + ']':<42}{m['unit']:>7}{value:>13.5g}"
            )
    return rows
