"""Measure one workload: the command ``BENCHMARK.json`` records.

    python3 benchmarks/spine/run.py --workload fit_paper --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the layer probes under the benchmark's span
recorder and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The full result (sample counts, min, quartiles,
diagnostics, the checks) goes to ``out/result-<workload>-trace<N>.json``.
"""

import os
import sys
import time

_BOOT = time.perf_counter()

# One BLAS/OpenMP thread, and no backend/kernel override leaking in
# from the caller's shell; set before NumPy is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
for _name in ("REPRO_BACKEND", "REPRO_WORKERS", "REPRO_KERNELS"):
    os.environ.pop(_name, None)

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    sys.exit("benchmarks/spine: no src/repro beside it; nothing to measure")
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import argparse  # noqa: E402
import json  # noqa: E402

from benchmarks.spine import inputs, probes, procs, workloads  # noqa: E402
from benchmarks.spine.results import (  # noqa: E402
    OUT_DIR,
    SCHEMA,
    WORKLOADS,
    check_declared,
    format_rows,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small scene, fixed 2 passes, same code paths")
    args = parser.parse_args(argv)
    scale = inputs.QUICK if args.quick else inputs.PAPER

    boot_s = time.perf_counter() - _BOOT
    if args.trace:
        out = probes.run(args.workload, args.seed, scale)
        section = "per_layer"
    else:
        out = workloads.RUNNERS[args.workload](
            args.seed, args.seconds, scale, boot_s
        )
        section = "end_to_end"
    if not out.failed:
        # a failed operation may leave out the metrics its result feeds
        check_declared(section, out.metrics)
    # every time is reported at the reference machine speed (speed.py)
    factor = out.speed.factor()
    out.metrics.scale_times(factor)
    out.diagnostics.update(
        speed_factor=factor,
        reference_ms_median=out.speed.median_ms(),
        reference_samples=len(out.speed.samples),
    )

    document = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale.name,
        "env": inputs.environment_stamp(),
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "metrics": out.metrics.values,
        "diagnostics": out.diagnostics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=1))

    print(f"{args.workload} seed={args.seed} scale={scale.name} "
          f"trace={args.trace} ops={out.attempted} failed={out.failed}")
    print("\n".join(format_rows(out.metrics.values)))
    for name, ok in out.checks.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics.contract(),
    }))
    return 0 if out.correct and not out.failed else 1


if __name__ == "__main__":
    # whichever way the run ends, no process it started is left behind
    procs.adopt_orphans()
    try:
        code = main()
    finally:
        procs.stop_children()
    sys.exit(code)
