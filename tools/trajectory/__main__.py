"""CLI: ``python -m tools.trajectory pins [--update]``.

``pins`` runs every workload ``BENCHMARK.json`` declares at ``--smoke``
sizes on each pinned seed and compares each run's output digest,
attempted and failed counts with ``tools/trajectory/pins.json``.  Exit 0
when every run matches, 1 when one differs or fails its checks.
``--update`` rewrites the file from this checkout instead: a declared
behaviour change re-pins here, in one place.

Run from the repo root (the benchmark runs from the checkout it sits in).
"""

from __future__ import annotations

import argparse
import sys

from tools.trajectory.pins import check_pins, update_pins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.trajectory",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    pins = commands.add_parser(
        "pins", help="check (or --update) the smoke-size digest pins")
    pins.add_argument("--update", action="store_true",
                      help="rewrite the pin file from this checkout")
    args = parser.parse_args(argv)
    if args.update:
        update_pins()
        return 0
    return check_pins()


if __name__ == "__main__":
    sys.exit(main())
