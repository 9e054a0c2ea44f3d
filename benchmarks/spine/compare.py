"""Gate two sets of results on the bounds ``BENCHMARK.json`` declares.

A *side* is a ``.json`` result document or a ``.jsonl`` file of them
(one per line, e.g. ten seeds, or ``history.jsonl``).  The value of a
metric is its median over the side's documents and its spread their
inter-quartile range.  One document has no run-to-run spread (the
scatter of the operations inside a run is not the scatter of their
median), so single documents are judged on the bound alone.

Where a workload's value is the mean of parts (``fit_paper``'s k=8 and
k=25), each part gets a row of its own, ``metric[part]``, under the
metric's bound.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.spine.results import declared, summarize


def load_side(path: str) -> List[Dict[str, Any]]:
    text = Path(path).read_text()
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return [json.loads(text)]


def side_summary(
    docs: List[Dict[str, Any]], workload: str, metric: str,
    part: Optional[str] = None,
) -> Dict[str, float]:
    """Median, quartile spread and range of one (metric, workload), or
    of one of the parts its value averages."""
    found = [
        doc["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        for doc in docs
    ]
    if part is None:
        values = [m["value"] for m in found if m]
    else:
        values = [m["parts"][part] for m in found
                  if m and part in m.get("parts", {})]
    if not values:
        return {}
    s = summarize(values)
    return {"value": s["median"], "iqr": s["iqr"],
            "lo": s["min"], "hi": s["max"]}


def parts_of(
    docs: List[Dict[str, Any]], workload: str, metric: str
) -> List[str]:
    """Labels of the parts a side records for one (metric, workload)."""
    m = docs[0]["workloads"].get(workload, {}).get("end_to_end", {})
    return list(m.get(metric, {}).get("parts", {}))


def verdict(
    a: Dict[str, float], b: Dict[str, float], bound: float, better: str
) -> Tuple[str, float]:
    """``ok`` / ``worse`` / ``unresolved`` and B's relative change in
    the worse direction.  Unresolved: either side's spread exceeds the
    bound and the two sides' ranges overlap, so the runs cannot tell a
    regression of that size from noise."""
    change = (b["value"] - a["value"]) / abs(a["value"])
    if better == "higher":
        change = -change
    noisy = max(a["iqr"] / abs(a["value"]), b["iqr"] / abs(b["value"])) > bound
    overlap = a["lo"] <= b["hi"] and b["lo"] <= a["hi"]
    if noisy and overlap:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(path_a: str, path_b: str) -> int:
    side_a, side_b = load_side(path_a), load_side(path_b)
    spec = declared()
    rows, counts = [], {"ok": 0, "worse": 0, "unresolved": 0}
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            # the metric, then each part under the metric's own bound:
            # a mean can hide one part's loss behind another's gain
            for part in [None] + parts_of(side_a, workload, m["name"]):
                a = side_summary(side_a, workload, m["name"], part)
                b = side_summary(side_b, workload, m["name"], part)
                if not a or not b:
                    continue
                result, change = verdict(a, b, m["bound"], m["better"])
                counts[result] += 1
                name = m["name"] + (f"[{part}]" if part else "")
                rows.append(
                    f"{result:<11}{name:<20}{workload:<13}"
                    f"{a['value']:>13.5g}{b['value']:>13.5g}"
                    f"{100 * change:>+9.2f}%{100 * m['bound']:>7.0f}%"
                )
    print(f"{'verdict':<11}{'metric':<20}{'workload':<13}{'A':>13}{'B':>13}"
          f"{'worse by':>10}{'bound':>8}")
    print("\n".join(rows))
    print(", ".join(f"{n} {name}" for name, n in counts.items())
          + f"  (A: {len(side_a)} run(s), B: {len(side_b)} run(s))")
    return 1 if counts["worse"] else 0
