"""``python -m benchmarks.spine run|compare`` (see ``README.md``)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.spine.results import OUT_DIR, SCHEMA, SPINE_DIR, WORKLOADS

HISTORY = SPINE_DIR / "history.jsonl"


def measure(
    workload: str, trace: int, args: argparse.Namespace
) -> Dict[str, Any]:
    """One workload in its own interpreter (so peak RSS is its own);
    its tables stream through, its full result comes back from
    ``out/``."""
    command = [
        sys.executable, str(SPINE_DIR / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    code = subprocess.run(command).returncode
    path = OUT_DIR / f"result-{workload}-trace{trace}.json"
    if not path.exists():
        raise SystemExit(f"{workload} --trace {trace} exited {code} "
                         "without a result")
    return json.loads(path.read_text())


def run(args: argparse.Namespace) -> int:
    started = time.time()
    for stale in OUT_DIR.glob("result-*.json"):
        stale.unlink()
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "quick" if args.quick else "paper",
        "workloads": {},
    }
    runs: List[Dict[str, Any]] = []
    for workload in WORKLOADS:
        result = measure(workload, 0, args)
        runs.append(result)
        document["workloads"][workload] = {
            "end_to_end": result["metrics"],
            "diagnostics": result["diagnostics"],
            "checks": result["checks"],
            "ops_attempted": result["attempted"],
            "ops_failed": result["failed"],
        }
    # the probe suite is the same whichever workload is named, so the
    # traced pass runs once
    traced = measure(WORKLOADS[0], 1, args)
    runs.append(traced)
    document["per_layer"] = traced["metrics"]
    document["per_layer_checks"] = traced["checks"]
    document["env"] = traced["env"]
    document["wall_s"] = time.time() - started

    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.write_text(json.dumps(document, indent=1))
    if args.record:
        with HISTORY.open("a") as history:
            history.write(json.dumps(document) + "\n")
    ok = all(r["correct"] and not r["failed"] for r in runs)
    print(f"{'ok' if ok else 'FAILED'}: {len(runs)} runs in "
          f"{document['wall_s']:.0f} s -> {out}"
          + (f", appended to {HISTORY.name}" if args.record else ""))
    return 0 if ok else 1


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="every workload, then the traced pass")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=float, default=20.0,
                       help="timed section per workload (75 ≈ the 5 reps "
                            "the issue sized; BENCHMARK.json runs 20)")
    p_run.add_argument("--quick", action="store_true")
    p_run.add_argument("--record", action="store_true",
                       help=f"append the result to {HISTORY.name}")
    p_run.add_argument("--out", help="result path (default out/result.json)")
    p_cmp = sub.add_parser("compare", help="gate B against A")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    from benchmarks.spine.compare import compare

    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
