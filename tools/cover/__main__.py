"""CLI: ``python -m tools.cover --out DIR``.

Runs every root, then the tier-1 suite, each traced and one at a time,
and writes ``DIR/map.json`` (sorted, byte-identical for one tree and
Python version: per module of ``src/repro`` the executable lines' count
and ``[first, last]`` ranges in each state, the functions whose body no
root runs, and each run's exit code) and ``DIR/summary.txt`` (one row per
module with a line no root runs).  Each run's output is in
``DIR/raw/<run>.log``.

Exit 0 when every run exited 0; 1 otherwise (the map is written either
way).  Run from anywhere; it runs each root from the repo root.  A full
map takes about 20 minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from tools.cover.linemap import build_map, run_roots, summary_text
from tools.cover.roots import ROOT, SRC, TESTS, roots


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.cover",
                                     description=__doc__.split("\n\n")[1])
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for map.json, summary.txt and raw/")
    out = parser.parse_args(argv).out.resolve()
    raw = out / "raw"
    shutil.rmtree(raw, ignore_errors=True)
    raw.mkdir(parents=True)
    commands = roots(raw)
    ran = run_roots([*commands, TESTS], raw, SRC / "repro", ROOT,
                    [SRC, ROOT])
    linemap = build_map(SRC / "repro", raw,
                        [command.name for command in commands], TESTS.name,
                        ran)
    (out / "map.json").write_text(json.dumps(linemap, indent=1,
                                             sort_keys=True) + "\n")
    summary = summary_text(linemap)
    (out / "summary.txt").write_text(summary)
    print(summary, end="")
    return int(any(run["exit"] for run in ran))


if __name__ == "__main__":
    sys.exit(main())
