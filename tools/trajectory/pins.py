"""Digest pins: what every workload outputs at ``--smoke`` sizes.

A workload's digest, attempted and failed counts depend on the program's
behaviour, never on host speed, so they can be compared exactly across
machines.  The pin file records the Python and numpy versions it was
made with; a mismatch report names both, since a numerical library
upgrade is the one host fact that could move a digest on its own.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
PIN_FILE = Path(__file__).resolve().parent / "pins.json"
SEEDS = (11, 23)
PINNED = ("digest", "attempted", "failed")


def _workloads() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in declared["workloads"]]


def _smoke_run(workload: str, seed: int) -> dict[str, Any]:
    """One untraced ``--smoke`` run in a fresh process; its detail record."""
    from bench import NOMINAL_SECONDS
    from bench.__main__ import child_run

    args = argparse.Namespace(seed=seed, seconds=NOMINAL_SECONDS, smoke=True)
    detail = child_run(workload, args, trace=0)
    if detail is None:
        raise RuntimeError(f"{workload} seed {seed}: the run failed "
                           f"its checks")
    return detail


def _current() -> tuple[dict[str, str], list[dict[str, Any]]]:
    runs, versions = [], {}
    for workload in _workloads():
        for seed in SEEDS:
            detail = _smoke_run(workload, seed)
            versions = {"python": detail["host"]["python"],
                        "numpy": detail["host"]["numpy"]}
            runs.append({"workload": workload, "seed": seed,
                         **{key: detail[key] for key in PINNED}})
    return versions, runs


def update_pins() -> None:
    versions, runs = _current()
    PIN_FILE.write_text(json.dumps({"made_with": versions, "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(runs)} runs in {PIN_FILE}")


def check_pins() -> int:
    pinned = json.loads(PIN_FILE.read_text())
    expected = {(run["workload"], run["seed"]): run for run in pinned["runs"]}
    try:
        versions, runs = _current()
    except RuntimeError as failure:
        print(f"FAILED: {failure}")
        return 1
    mismatches = 0
    for run in runs:
        key = (run["workload"], run["seed"])
        pin = expected.pop(key, None)
        if pin is None:
            print(f"UNPINNED {key[0]} seed {key[1]}")
            mismatches += 1
            continue
        differ = [field for field in PINNED if run[field] != pin[field]]
        if differ:
            mismatches += 1
            for field in differ:
                print(f"MISMATCH {key[0]} seed {key[1]} {field}: "
                      f"pinned {pin[field]}, now {run[field]}")
        else:
            print(f"ok {key[0]} seed {key[1]} {run['digest'][:16]}")
    for workload, seed in expected:
        print(f"STALE PIN {workload} seed {seed}: no such run now")
        mismatches += 1
    if mismatches:
        print(f"{mismatches} of {len(runs)} runs differ from the pins "
              f"(made with {pinned['made_with']}, this host has "
              f"{versions}); re-pin with --update only for a declared "
              f"behaviour change")
        return 1
    print(f"ok: {len(runs)} runs match the pins")
    return 0
