"""CLI: ``python -m tools.trajectory pins [--update]`` and ``pairs``.

``pins`` runs every workload ``BENCHMARK.json`` declares at ``--smoke``
sizes on each pinned seed, untraced and traced, and compares each run's
output digest, attempted and failed counts, and the traced run's work
counts (every declared ``count`` metric, each span's ``.calls``
included, plus ``verifications_per_tx`` and the script-cache hit
ratio), with ``tools/trajectory/pins.json``.  Exit 0 when every run
matches, 1 when one differs or fails its checks; a mismatch names the
field or count and both values.
``--update`` rewrites the file from this checkout instead: a declared
behaviour change re-pins here, in one place.

``pairs --base REV [--change REV] --workload W [--seeds 11,23]
[--pairs N] [--out DIR]`` measures a timing claim: N alternating
base/change pairs per seed, each side in a fresh local clone
(``tools/trajectory/pairs.py``).  ``--out`` also writes
``DIR/base-<seed>.json`` and ``DIR/change-<seed>.json`` for
``python -m bench.compare``.
``--change`` defaults to ``HEAD``, so commit what is to be measured.
Clones go under the system temporary directory (``TMPDIR``).  Exit 0
when every pair ran the same program on both sides, 1 otherwise.

Run from the repo root (the benchmark runs from the checkout it sits in).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.trajectory.pairs import pairs_command
from tools.trajectory.pins import check_pins, update_pins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.trajectory",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    pins = commands.add_parser(
        "pins",
        help="check (or --update) the smoke-size digest and work pins")
    pins.add_argument("--update", action="store_true",
                      help="rewrite the pin file from this checkout")
    pairs = commands.add_parser(
        "pairs", help="alternating base/change pairs from fresh clones")
    pairs.add_argument("--base", required=True, help="the base revision")
    pairs.add_argument("--change", default="HEAD",
                       help="the changed revision (default HEAD)")
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seeds", default="11,23",
                       type=lambda text: [int(s) for s in text.split(",")])
    pairs.add_argument("--pairs", type=int, default=10,
                       help="pairs per seed (default 10)")
    pairs.add_argument("--out", type=Path,
                       help="write base-<seed>.json / change-<seed>.json "
                            "results here")
    args = parser.parse_args(argv)
    if args.command == "pairs":
        return pairs_command(args.base, args.change, args.workload,
                             args.seeds, args.pairs, out=args.out)
    if args.update:
        update_pins()
        return 0
    return check_pins()


if __name__ == "__main__":
    sys.exit(main())
