"""Run the repo's determinism checks: ``python -m tools.checks``.

Two layers run under one command:

1. the **per-file** AST checkers from
   :data:`tools.checks.checkers.ALL_CHECKERS`, over every ``*.py`` in
   the given paths (default: ``src tests benchmarks tools``);
2. the **whole-program** pass from :mod:`tools.analysis` — symbol table
   + call graph over ``src/repro``, interprocedural taint from
   nondeterminism sources into consensus/hash/export sinks, and the
   exception-flow rule.

Findings carry stable fingerprints (rule + path + qualname + normalized
snippet — line-drift independent).  ``--baseline FILE`` makes the run
fail only on findings whose fingerprint is not in the baseline;
``--update-baseline`` rewrites it.  ``--format json|sarif`` emits
machine-readable reports (SARIF uploads as a CI artifact).  Exit status
is 1 when any unbaselined finding exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.checks import Violation, check_file
from tools.checks.checkers import ALL_CHECKERS

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")

#: Directory fragments skipped by the per-file walk.  ``tests/tools``
#: keeps deliberate-violation fixture corpora for the analyzer's own
#: test suite; linting them would defeat their purpose.
EXCLUDED_FRAGMENTS = ("tests/tools/fixtures/",)


def iter_python_files(paths: list[str], root: Path) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    kept = []
    for path in files:
        posix = path.as_posix()
        if any(fragment in posix for fragment in EXCLUDED_FRAGMENTS):
            continue
        kept.append(path)
    return kept


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.checks",
        description="BcWAN determinism checks: per-file lint + "
                    "whole-program analysis",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories for the per-file lint "
                             "(default: %(default)s)")
    parser.add_argument("--root", default=".",
                        help="repo root that paths are relative to")
    parser.add_argument("--format", dest="output_format", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file of accepted finding "
                             "fingerprints; only new findings fail the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the --baseline file from the current "
                             "findings and exit 0")
    parser.add_argument("--no-whole-program", action="store_true",
                        help="skip the interprocedural pass (per-file "
                             "lint only)")
    parser.add_argument("--whole-program-root", default="src/repro",
                        help="package directory the whole-program pass "
                             "covers (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.update_baseline and args.baseline is None:
        parser.error("--update-baseline requires --baseline")

    root = Path(args.root).resolve()
    violations: list[Violation] = []
    checked = 0
    for path in iter_python_files(args.paths, root):
        violations.extend(check_file(path, root, ALL_CHECKERS))
        checked += 1

    if not args.no_whole_program:
        from tools.analysis import run_whole_program
        violations.extend(run_whole_program(root, args.whole_program_root))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))

    from tools.analysis.report import (
        load_baseline, render_json, render_sarif, render_text,
        split_by_baseline, write_baseline,
    )

    if args.update_baseline:
        write_baseline(args.baseline, violations)
        print(f"baseline updated: {len(violations)} finding(s) -> "
              f"{args.baseline}")
        return 0

    baseline = load_baseline(args.baseline) if args.baseline else {}
    new, known = split_by_baseline(violations, baseline)
    # Hard-fail rules cannot hide behind the baseline: promote any
    # baselined finding of theirs back into the failing set.
    hard_rules = {c.rule for c in ALL_CHECKERS if c.hard_fail}
    promoted = [v for v in known if v.rule in hard_rules]
    if promoted:
        new = sorted(new + promoted,
                     key=lambda v: (v.path, v.line, v.rule))
        known = [v for v in known if v.rule not in hard_rules]

    if args.output_format == "json":
        sys.stdout.write(render_json(new, checked, len(known)))
    elif args.output_format == "sarif":
        sys.stdout.write(render_sarif(new, checked, len(known)))
    else:
        if new:
            print(render_text(new))
            print(f"{len(new)} new finding(s) "
                  f"({len(known)} baselined) in {checked} file(s)",
                  file=sys.stderr)
        else:
            print(f"ok: {checked} file(s), {len(ALL_CHECKERS)} per-file "
                  f"rule(s) + whole-program pass, "
                  f"{len(known)} baselined finding(s), nothing new")
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
