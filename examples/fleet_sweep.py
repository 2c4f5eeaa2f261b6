#!/usr/bin/env python3
"""Fleet sweep walkthrough: grid in, deterministic result rows out.

Expands a small scenario grid (fleet size x spreading factor x consensus
x chaos plan), runs every cell, and prints the per-cell completion table.
Each cell runs with its own derived seed; re-running with the same
``--out`` resumes instead of recomputing, and the merged ``results.json``
is byte-identical either way.

Run::

    PYTHONPATH=src python examples/fleet_sweep.py [--out sweep-out]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools.sweep import expand_grid, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="result directory (default: a temp dir)")
    parser.add_argument("--exchanges", type=int, default=6)
    args = parser.parse_args()
    out = args.out or tempfile.mkdtemp(prefix="fleet-sweep-")

    cells = expand_grid(
        axes={
            "num_gateways": [2, 4],
            "spreading_factor": [7, 9],
            "consensus": ["master", "pos"],
            "chaos": ["none", "wan-loss"],
        },
        base={
            "sensors_per_gateway": 3,
            "exchange_interval": 20.0,
        },
        base_seed=2026,
    )
    print(f"{len(cells)} cells -> {out}")
    rows = run_sweep(cells, out, num_exchanges=args.exchanges)

    print()
    print(f"{'cell':<60} {'done':>4} {'rate':>6} {'p95 lat':>8}")
    for row in rows:
        rate = f"{row['completion_rate']:.0%}"
        p95 = (f"{row['latency']['p95']:.1f}s"
               if row['latency']['count'] else "-")
        print(f"{row['cell']:<60} {row['completed']:>4} {rate:>6} {p95:>8}")

    total = sum(row["launched"] for row in rows)
    done = sum(row["completed"] for row in rows)
    print(f"\n{done}/{total} exchanges completed; "
          f"results in {out}/results.json")


if __name__ == "__main__":
    main()
