"""Run the repo's static analysis: ``python -m tools.analysis``.

Two layers run under one command:

1. the **per-file** rules of :mod:`tools.analysis.perfile`, over every
   ``*.py`` in the given paths (default: ``src tests benchmarks tools``);
2. the **whole-program** passes over ``src/repro`` — interprocedural
   taint into consensus/hash/export sinks, the exception-flow rule, the
   ``unreachable`` rule (what no entry point reaches) and the
   ``doc-reference`` rule (what the living docs cite must exist).

Findings carry stable fingerprints (rule + path + qualname + normalized
snippet — line-drift independent).  ``--baseline FILE`` makes the run
fail on findings whose fingerprint is not in the baseline and on stale
baseline entries, which no finding matches any more;
``--update-baseline`` rewrites it, keeping each surviving entry's
reason.  ``--format json|sarif`` emits machine-readable reports (SARIF
uploads as a CI artifact).  Exit status is 1 when any unbaselined
finding or stale entry exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.analysis import EXCLUDED_FRAGMENTS, run_whole_program
from tools.analysis.perfile import ALL_CHECKERS, check_source
from tools.analysis.report import (
    Violation, load_baseline, render_json, render_sarif, render_text,
    split_by_baseline, stale_entries, write_baseline,
)

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")


def iter_python_files(paths: list[str], root: Path) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = root / raw
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return [path for path in files
            if not any(fragment in path.as_posix()
                       for fragment in EXCLUDED_FRAGMENTS)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.analysis",
        description="BcWAN static analysis: per-file rules + "
                    "whole-program passes",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories for the per-file rules "
                             "(default: %(default)s)")
    parser.add_argument("--root", default=".",
                        help="repo root that paths are relative to")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file of accepted finding "
                             "fingerprints; new findings and stale entries "
                             "fail the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the --baseline file from the current "
                             "findings and exit 0")
    args = parser.parse_args(argv)

    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline")

    root = Path(args.root).resolve()
    files = iter_python_files(args.paths, root)
    violations: list[Violation] = []
    for path in files:
        violations.extend(check_source(path.read_text(encoding="utf-8"),
                                       path.relative_to(root).as_posix()))
    violations.extend(run_whole_program(root))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))

    if args.update_baseline:
        write_baseline(args.baseline, violations)
        print(f"baseline updated: {len(violations)} finding(s) -> "
              f"{args.baseline}")
        return 0

    baseline = load_baseline(args.baseline) if args.baseline else {}
    new, known = split_by_baseline(violations, baseline)
    stale = stale_entries(violations, baseline)

    if args.output_format == "json":
        sys.stdout.write(render_json(new, len(files), len(known)))
    elif args.output_format == "sarif":
        sys.stdout.write(render_sarif(new, len(files), len(known)))
    elif new:
        print(render_text(new))
        print(f"{len(new)} new finding(s) "
              f"({len(known)} baselined) in {len(files)} file(s)",
              file=sys.stderr)
    elif not stale:
        print(f"ok: {len(files)} file(s), {len(ALL_CHECKERS)} per-file "
              f"rule(s) + whole-program passes, "
              f"{len(known)} baselined finding(s), nothing new, nothing "
              f"stale")
    for entry in stale:
        print(f"stale baseline entry {entry} (no finding matches it): "
              f"{baseline[entry].get('finding', '')}", file=sys.stderr)
    return 1 if new or stale else 0

if __name__ == "__main__":
    raise SystemExit(main())
