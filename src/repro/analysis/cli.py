"""``repro-lint`` console entry point.

Examples::

    repro-lint src/repro              # lint the library, human output
    repro-lint --format json src      # machine-readable diagnostics
    repro-lint --format sarif src > lint.sarif
    repro-lint --select LOOP001,TIME001 src/repro
    repro-lint --statistics src/repro
    repro-lint --list-rules

With no paths the installed ``repro`` package is linted.  Every rule
runs unless ``--select`` names the exact codes to run or ``--ignore``
drops some; the target set is parsed once whatever the combination.
Exit status: 0 when clean, 1 when diagnostics were found, 2 on usage
errors (unknown rule code, nonexistent path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import LintEngine, all_rules, load_project
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

    try:
        engine = LintEngine(select=args.select, ignore=args.ignore)
        project = load_project(paths, exclude=args.exclude)
        diagnostics = engine.lint_project(project)
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"repro-lint: {message}", file=sys.stderr)
        return 2

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
