"""Command-line experiment runner.

``repro-contact table1 --scale {default,paper,epic}`` regenerates the
paper's Table 1 and prints the §5.2 claims as held / not held under it;
``repro-contact stages`` prints the Figure-3-style per-snapshot
simulation statistics; ``repro-contact ablation-update`` compares the
§4.3 update strategies; ``repro-contact trace`` runs both algorithms
under the phase tracer and prints/serializes the run report
(``docs/OBSERVABILITY.md``); ``repro-contact lint`` runs the
``repro-lint`` static analyser (see ``docs/STATIC_ANALYSIS.md``);
``repro-contact serve`` launches the partitioning service (forwards to
``repro-serve``, see ``docs/SERVICE.md``); ``repro-contact selfcheck``
runs the installation self-check.

``--trace-json PATH`` (global) writes the versioned run-report JSON
for any experiment command; the ``trace`` subcommand additionally
prints the report to the terminal.

``--backend {chaos,process,serial,tcp,thread}`` and ``--workers N``
(global, also accepted after the subcommand) select the SPMD execution
backend for every parallel stage in the run (``docs/PARALLELISM.md``);
results are bit-identical across backends. ``--fault-plan PLAN``
(e.g. ``kill@2.1,hang@5.0:12``) injects deterministic worker faults
through the chaos harness, wrapped around the ``--backend`` given (or
its own default inner backend when none is), to exercise the recovery
machinery (``docs/FAULT_TOLERANCE.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from repro.sim.projectile import ImpactConfig

#: ``table1 --scale`` presets: scene constructor and default k
SCALES = {
    "default": (ImpactConfig, (25, 100)),
    "paper": (ImpactConfig.paper_scale, (8, 25)),
    "epic": (ImpactConfig.epic_scale, (25, 100)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-contact",
        description=(
            "Reproduction experiments for 'Multi-Constraint Mesh "
            "Partitioning for Contact/Impact Computations' (SC 2003)."
        ),
    )
    parser.add_argument(
        "--steps", type=int, default=100, help="snapshots to simulate"
    )
    parser.add_argument(
        "--refine",
        type=float,
        default=1.0,
        help="mesh refinement factor (scales all element counts)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help=(
            "write the phase-trace run report (JSON, schema "
            "repro.run-report/1) to PATH"
        ),
    )
    parser.add_argument(
        "--backend",
        metavar="SPEC",
        default=None,
        help=(
            "execution backend spec for the parallel stages: a "
            "backend name ('serial', 'process:4') or a URI "
            "('tcp://host:port?workers=4&deadline=30'); default: "
            "$REPRO_BACKEND or serial (see docs/PARALLELISM.md)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help=(
            "worker count for the thread/process backend (default: "
            "$REPRO_WORKERS or the CPU count); implies --backend process"
        ),
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PLAN",
        default=None,
        help=(
            "deterministic fault-injection plan, e.g. "
            "'kill@2.1,hang@5.0:12' (KIND@STEP.RANK[:SECONDS]); runs "
            "--backend inside the chaos harness (docs/FAULT_TOLERANCE.md)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_json(p: argparse.ArgumentParser) -> None:
        # accepted after the subcommand too; SUPPRESS keeps a value
        # parsed from the global position from being reset to None
        p.add_argument(
            "--trace-json",
            metavar="PATH",
            default=argparse.SUPPRESS,
            help="write the run-report JSON to PATH",
        )
        p.add_argument(
            "--backend",
            metavar="SPEC",
            default=argparse.SUPPRESS,
            help=(
                "execution backend spec (name or URI) for the "
                "parallel stages"
            ),
        )
        p.add_argument(
            "--workers",
            type=int,
            metavar="N",
            default=argparse.SUPPRESS,
            help="worker count (implies --backend process)",
        )
        p.add_argument(
            "--fault-plan",
            metavar="PLAN",
            default=argparse.SUPPRESS,
            help="fault-injection plan (wraps --backend in chaos)",
        )

    t1 = sub.add_parser("table1", help="regenerate Table 1")
    add_trace_json(t1)
    t1.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="scene preset and its k: default and epic 25 100, paper 8 25",
    )
    t1.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=None,
        help="partition counts (default: the scale's)",
    )

    stages = sub.add_parser(
        "stages", help="Figure-3-style simulation statistics"
    )
    add_trace_json(stages)

    ab = sub.add_parser(
        "ablation-update", help="compare the §4.3 update strategies"
    )
    ab.add_argument("--k", type=int, default=16)
    ab.add_argument("--period", type=int, default=10)
    add_trace_json(ab)

    fig = sub.add_parser(
        "figure1", help="render a snapshot's descriptors in the terminal"
    )
    fig.add_argument("--k", type=int, default=4)
    fig.add_argument("--snapshot", type=int, default=0)
    add_trace_json(fig)

    tr = sub.add_parser(
        "trace",
        help=(
            "run MCML+DT and the ML+RCB baseline under the phase tracer "
            "and print the run report (docs/OBSERVABILITY.md)"
        ),
    )
    tr.add_argument(
        "mesh",
        nargs="?",
        default=None,
        help=(
            "optional mesh .npz (see repro.mesh.io.save_mesh); default: "
            "the synthetic impact sequence"
        ),
    )
    tr.add_argument("--k", type=int, default=8, help="partition count")
    tr.add_argument(
        "--trace-steps",
        type=int,
        default=2,
        help="driver steps to trace (mesh input is static; default 2)",
    )
    tr.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the ML+RCB baseline pass",
    )
    add_trace_json(tr)

    lint = sub.add_parser(
        "lint",
        help="run the repro-lint invariant linter (docs/STATIC_ANALYSIS.md)",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help=(
            "arguments forwarded to repro-lint (default: lint the "
            "installed repro package)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "launch the partitioning service (forwards to repro-serve; "
            "docs/SERVICE.md)"
        ),
    )
    serve.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro-serve",
    )

    sub.add_parser(
        "selfcheck", help="run the installation self-check pipeline"
    )
    return parser


def _run_lint(lint_args: List[str]) -> int:
    """Forward to repro-lint (which defaults to the installed package
    when no path argument is given)."""
    from repro.analysis.cli import main as lint_main

    return lint_main(lint_args)


def _snapshot_from_mesh_file(path: str):
    """Load a mesh ``.npz`` and wrap it as a static contact snapshot
    (every boundary face is a contact face)."""
    from repro.mesh.io import load_mesh
    from repro.sim.sequence import ContactSnapshot, extract_contact_surface

    mesh = load_mesh(path)
    faces, owner, cnodes = extract_contact_surface(
        mesh, capture_radius=float("inf")
    )
    if len(cnodes) == 0:
        raise ValueError(f"{path}: mesh has no boundary contact surface")
    tip = float(mesh.nodes[:, -1].min()) if mesh.num_nodes else 0.0
    return ContactSnapshot(
        mesh=mesh,
        contact_faces=faces,
        contact_face_owner=owner,
        contact_nodes=cnodes,
        step=0,
        time=0.0,
        tip_z=tip,
    )


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: both algorithms, one report."""
    from repro.core.driver import ContactStepDriver
    from repro.core.ml_rcb import MLRCBPartitioner
    from repro.obs import RunReport, Tracer
    from repro.partition.config import PartitionOptions
    from repro.sim.sequence import simulate_impact

    tracer = Tracer()
    n_steps = max(1, args.trace_steps)
    if args.mesh is not None:
        try:
            snapshot = _snapshot_from_mesh_file(args.mesh)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load mesh {args.mesh!r}: {exc}",
                  file=sys.stderr)
            return 2
        snapshots = [snapshot] * n_steps
        source = args.mesh
    else:
        config = ImpactConfig(n_steps=n_steps, refine=args.refine)
        with tracer.span("simulate"):
            snapshots = list(simulate_impact(config, tracer=tracer))
        source = "synthetic-impact"

    params_options = PartitionOptions(seed=args.seed)
    from repro.core.mcml_dt import MCMLDTParams
    from repro.core.ml_rcb import MLRCBParams

    with tracer.span("mcml-dt"):
        driver = ContactStepDriver(
            args.k,
            params=MCMLDTParams(options=params_options),
            tracer=tracer,
        )
        driver.initialize(snapshots[0])
        for snapshot in snapshots:
            driver.step(snapshot)

    if not args.no_baseline:
        with tracer.span("ml-rcb"):
            baseline = MLRCBPartitioner(
                args.k, params=MLRCBParams(options=params_options)
            )
            baseline.fit(snapshots[0], tracer=tracer)
            for snapshot in snapshots:
                if snapshot.step > 0:
                    baseline.update(snapshot, tracer=tracer)
                baseline.m2m_comm_now(tracer=tracer)
                baseline.search_plan(snapshot, tracer=tracer)

    report = RunReport.from_run(
        tracer,
        driver.ledger,
        k=args.k,
        steps=len(snapshots),
        source=source,
        seed=args.seed,
        backend=args.backend,
    )
    if args.trace_json:
        report.save(args.trace_json)
    print(report.render())
    if args.trace_json:
        print(f"\ntrace written to {args.trace_json}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run the selected experiment command."""
    argv = list(sys.argv[1:] if argv is None else argv)

    # `lint` forwards its tail verbatim to repro-lint, bypassing
    # argparse (REMAINDER mis-parses forwarded options like --format);
    # `serve` forwards to repro-serve the same way
    if argv and argv[0] == "lint":
        return _run_lint(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import main as serve_main

        return serve_main(argv[1:])

    args = _build_parser().parse_args(argv)

    # install the requested execution backend as the process default so
    # every parallel stage in the run picks it up (--workers alone
    # implies a process pool; --fault-plan wraps whatever was asked for
    # in the chaos harness)
    backend_name = getattr(args, "backend", None)
    workers = getattr(args, "workers", None)
    fault_plan = getattr(args, "fault_plan", None)
    try:
        if fault_plan is not None:
            from urllib.parse import quote

            from repro.runtime.backends import FAULT_PLAN_ENV, BackendSpec

            # an explicit `--backend chaos...` reads the plan from here
            os.environ[FAULT_PLAN_ENV] = fault_plan
            if backend_name is None:
                backend_name = "chaos"
            elif BackendSpec.parse(backend_name).scheme != "chaos":
                inner = quote(backend_name, safe=":/")
                backend_name = f"chaos://?inner={inner}"
        elif workers is not None and backend_name is None:
            backend_name = "process"
        if backend_name is not None:
            from repro.runtime.backends import (
                resolve_backend,
                set_default_backend,
            )

            set_default_backend(resolve_backend(backend_name, workers))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.backend = backend_name or "serial"

    if args.command == "lint":  # reached via global options before `lint`
        return _run_lint(list(args.lint_args))
    if args.command == "serve":  # reached via global options too
        from repro.service.cli import main as serve_main

        return serve_main(list(args.serve_args))
    if args.command == "selfcheck":
        from repro.selfcheck import main as selfcheck_main

        return selfcheck_main()
    if args.command == "trace":
        return _run_trace(args)

    # experiment commands share the synthetic sequence and the optional
    # phase tracer behind --trace-json
    from repro.obs import NULL_TRACER, RunReport, Tracer

    tracer = Tracer() if args.trace_json else NULL_TRACER

    preset, scale_ks = SCALES[getattr(args, "scale", "default")]
    config = dataclasses.replace(
        preset(n_steps=args.steps), refine=args.refine
    )

    # imports deferred so `--help` stays instant
    from repro.core.mcml_dt import MCMLDTParams
    from repro.partition.config import PartitionOptions
    from repro.sim.sequence import simulate_impact

    params = MCMLDTParams(options=PartitionOptions(seed=args.seed))

    with tracer.span("simulate"):
        seq = simulate_impact(config, tracer=tracer)

    if args.command == "table1":
        from repro.core.ml_rcb import MLRCBParams
        from repro.core.pipeline import table1

        strong = PartitionOptions.strong(args.seed)
        result = table1(seq, args.k or scale_ks, MCMLDTParams(options=strong),
                        MLRCBParams(options=strong), tracer)
        print(result.render())
        print("\n§5.2 claims (margin: relative distance from the bound):",
              *result.claims(), sep="\n")
    elif args.command == "stages":
        from repro.metrics.report import format_table

        rows = {}
        for s in seq:
            if s.step % max(1, len(seq) // 10) == 0 or s.step == len(seq) - 1:
                rows[f"step {s.step}"] = [
                    round(s.tip_z, 2),
                    s.mesh.num_elements,
                    s.num_contact_faces,
                    s.num_contact_nodes,
                ]
        print(
            format_table(
                "Simulation stages (Figure 3 analogue)",
                ["tip_z", "elements", "contact_faces", "contact_nodes"],
                rows,
            )
        )
    elif args.command == "ablation-update":
        from repro.core.update import UpdateStrategy, replay_sequence
        from repro.metrics.report import format_table

        rows = {}
        for strategy in UpdateStrategy:
            with tracer.span(strategy.value):
                r = replay_sequence(
                    seq, args.k, strategy, period=args.period,
                    params=params, tracer=tracer,
                )
            rows[strategy.value] = [
                round(r.mean_nt_nodes(), 1),
                round(r.max_imbalance(), 3),
                r.total_moved(),
            ]
        print(
            format_table(
                f"Update strategies at k={args.k} (§4.3)",
                ["mean NTNodes", "max imbalance", "vertices moved"],
                rows,
            )
        )
    elif args.command == "figure1":
        import numpy as np

        from repro.core.mcml_dt import MCMLDTPartitioner
        from repro.dtree.induction import induce_pure_tree
        from repro.dtree.render import render_descriptors, render_tree

        snap = seq[min(args.snapshot, len(seq) - 1)]
        pt = MCMLDTPartitioner(args.k, params)
        pt.fit(snap, tracer=tracer)
        coords = snap.mesh.nodes[snap.contact_nodes]
        labels = pt.part[snap.contact_nodes]
        # project to the two dominant lateral axes for display
        spread = coords.max(axis=0) - coords.min(axis=0)
        dims = np.argsort(spread)[::-1][:2]
        tree2d, _ = induce_pure_tree(coords[:, sorted(dims)], labels, args.k)
        print(
            f"Contact points of snapshot {snap.step} "
            f"(k={args.k}, projected to 2D), Figure-1 style:\n"
        )
        print(render_descriptors(tree2d, coords[:, sorted(dims)], labels))
        print(f"\nDecision tree ({tree2d.n_nodes} nodes):\n")
        print(render_tree(tree2d))

    if args.trace_json and isinstance(tracer, Tracer):
        report = RunReport.from_run(
            tracer, command=args.command, steps=args.steps,
            seed=args.seed, backend=args.backend,
        )
        report.save(args.trace_json)
        print(f"\ntrace written to {args.trace_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
