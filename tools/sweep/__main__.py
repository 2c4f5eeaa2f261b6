"""CLI: ``python -m tools.sweep --grid grid.json --out sweep-out``.

Example grid file::

    {
      "base_seed": 7,
      "base": {"num_gateways": 3, "sensors_per_gateway": 5},
      "axes": {"spreading_factor": [7, 9],
               "consensus": ["master", "pos"],
               "chaos": ["none", "wan-loss"]}
    }

Re-running with the same ``--out`` resumes: completed cells are loaded
from their JSON files, and the merged ``results.json`` comes out
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import sys

from tools.sweep.grid import load_grid
from tools.sweep.runner import run_sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.sweep",
        description="Expand a scenario grid and run every cell locally.",
    )
    parser.add_argument("--grid", required=True,
                        help="grid JSON file (base_seed/base/axes)")
    parser.add_argument("--out", required=True,
                        help="output directory for per-cell and merged JSON")
    parser.add_argument("--exchanges", type=int, default=40,
                        help="exchanges per cell unless the cell pins it")
    parser.add_argument("--max-duration", type=float, default=None,
                        help="simulated-seconds cap per cell")
    parser.add_argument("--no-resume", action="store_true",
                        help="re-run cells even if their result file exists")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    cells = load_grid(args.grid)
    echo = None if args.quiet else print
    if echo is not None:
        echo(f"{len(cells)} cells from {args.grid}")
    rows = run_sweep(cells, args.out, num_exchanges=args.exchanges,
                     max_duration=args.max_duration,
                     resume=not args.no_resume, echo=echo)
    total = sum(row["launched"] for row in rows)
    done = sum(row["completed"] for row in rows)
    if echo is not None:
        echo(f"total: {done}/{total} exchanges completed "
             f"across {len(rows)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
