"""``repro-lint`` console entry point.

Examples::

    repro-lint src/repro              # lint the library, human output
    repro-lint --format json src      # machine-readable diagnostics
    repro-lint --format sarif src > lint.sarif
    repro-lint --select ARR001,VAL001 src/repro
    repro-lint --perf src/repro       # + PERF family
    repro-lint --service src/repro    # + async/service correctness pass
    repro-lint --perf --trace-json smoke-trace.json src/repro
    repro-lint --perf --baseline lint-baseline.json src/repro
    repro-lint --statistics src/repro
    repro-lint --list-rules

With no paths the installed ``repro`` package is linted.  Every flag
below selects rule families of the one engine, which parses the
target set once whatever the combination.  ``--perf`` adds the PERF
family; ``--service`` adds the
async/service correctness rules (ASYNC001, TIME001 — also
whole-program, so pass the full tree); ``--select``
names the exact codes to run instead, from any family;
``--trace-json`` takes a ``repro.run-report/1`` artifact and ranks the
findings by measured span self-time; ``--baseline`` subtracts a
committed baseline so only *new* findings fail.  Exit status: 0 when
clean, 1 when diagnostics were found, 2 on usage errors (unknown rule
code, nonexistent path, two target files that map to one module name,
malformed baseline or trace).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.dataflow import ModuleCollisionError
from repro.analysis.engine import LintEngine, all_rules, load_project
from repro.analysis.perf import load_self_times, rank_diagnostics
from repro.analysis.reporters import (
    format_human,
    format_json,
    format_sarif,
    format_statistics,
)


def _split_codes(value: str) -> List[str]:
    return [c.strip() for c in value.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser (shared with ``repro.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the repro partitioning core "
            "(see docs/STATIC_ANALYSIS.md for the rule catalogue)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        type=_split_codes,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        type=_split_codes,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="GLOB",
        help=(
            "fnmatch pattern of paths to skip (repeatable; e.g. "
            "'tests/analysis/perf_fixtures/*')"
        ),
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help=(
            "also run the async/service correctness pass (ASYNC001, "
            "TIME001) over the target set"
        ),
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help=(
            "also run the opt-in PERF performance family (PERF001-005)"
        ),
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help=(
            "repro.run-report/1 artifact; PERF findings are annotated "
            "and ranked by the measured span self-times"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "committed lint baseline (repro.lint-baseline/1); "
            "baselined findings are subtracted so only new ones fail"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help=(
            "write the current findings to PATH as a new baseline "
            "and exit 0"
        ),
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-code counts (human format only)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the linter; returns the process exit status."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<24} {rule.description}")
        return 0

    paths = args.paths
    if not paths:
        # default to the installed library so `repro-lint` and
        # `repro-contact lint` work from any directory
        import repro

        paths = [str(Path(repro.__file__).parent)]

    families = ["core"]
    families += [f for f in ("service", "perf") if getattr(args, f)]

    try:
        engine = LintEngine(
            select=args.select, ignore=args.ignore, families=families
        )
        project = load_project(paths, exclude=args.exclude)
        diagnostics = engine.lint_project(project)
    except (KeyError, FileNotFoundError, ModuleCollisionError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro-lint: {message}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        n = write_baseline(args.write_baseline, diagnostics)
        print(
            f"repro-lint: wrote {n} baseline entries to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline is not None:
        try:
            known = load_baseline(args.baseline)
        except (OSError, BaselineError) as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        diagnostics, suppressed = apply_baseline(diagnostics, known)
        if suppressed:
            print(
                f"repro-lint: {suppressed} baselined finding(s) "
                f"suppressed via {args.baseline}",
                file=sys.stderr,
            )

    if args.trace_json is not None:
        try:
            self_times = load_self_times(args.trace_json)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2
        diagnostics = rank_diagnostics(diagnostics, self_times)

    if args.format == "json":
        print(format_json(diagnostics))
    elif args.format == "sarif":
        print(format_sarif(diagnostics))
    else:
        print(format_human(diagnostics))
        if args.statistics and diagnostics:
            print(format_statistics(diagnostics))
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
