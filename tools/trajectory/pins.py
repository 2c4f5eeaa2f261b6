"""Digest and work pins: what every workload outputs, and the work it
does, at ``--smoke`` sizes.

A workload's digest, attempted and failed counts depend on the program's
behaviour, never on host speed, so they can be compared exactly across
machines.  So do the counts of a traced run: how often each layer's
span was entered, events, frames, requests, and two ratios of such
counts.  Each run is made twice, untraced for the digest and traced for
the counts, so a change that keeps every output but does more (or less)
work fails here too.  The pin file records the Python and numpy versions
it was made with; a mismatch report names both, since a numerical
library upgrade is the one host fact that could move a digest on its
own.
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
# Ratios of two pinned counts, pinned as well: a ratio can move while
# neither of the layer counts beside it does.
COUNT_RATIOS = ("blockchain.verifications_per_tx",
                "blockchain.script_cache.hit_ratio")


def _declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads() -> list[str]:
    return [workload["name"] for workload in _declared()["workloads"]]


def _counted() -> list[str]:
    """The traced layer metrics pinned beside the digest: every one the
    benchmark declares with unit ``count`` (each span's ``.calls``
    included) and :data:`COUNT_RATIOS`.

    None of them is a ``bench.*`` span (the host-speed probe fires on a
    wall-clock timer) or a process-global cache count, which depends on
    what ran before in the process.
    """
    return [metric["name"] for metric in _declared()["per_layer"]
            if metric["unit"] == "count"] + list(COUNT_RATIOS)


def _smoke_run(workload: str, seed: int, trace: int) -> dict[str, Any]:
    """One ``--smoke`` run in a fresh process; its detail record."""
    from bench import NOMINAL_SECONDS
    from bench.__main__ import child_run

    args = argparse.Namespace(seed=seed, seconds=NOMINAL_SECONDS, smoke=True)
    detail = child_run(workload, args, trace=trace)
    if detail is None:
        raise RuntimeError(f"{workload} seed {seed}: the run failed "
                           f"its checks")
    return detail


def _current() -> tuple[dict[str, str], list[dict[str, Any]]]:
    runs, versions = [], {}
    counted = _counted()
    for workload in _workloads():
        for seed in SEEDS:
            detail = _smoke_run(workload, seed, trace=0)
            layers = _smoke_run(workload, seed, trace=1)["layers"]
            versions = {"python": detail["host"]["python"],
                        "numpy": detail["host"]["numpy"]}
            runs.append({"workload": workload, "seed": seed,
                         **{key: detail[key] for key in PINNED},
                         "counts": {name: layers[name] for name in counted}})
    return versions, runs


def _differences(pin: dict[str, Any], run: dict[str, Any]
                 ) -> list[tuple[str, Any, Any]]:
    """``(field, pinned, now)`` for every pinned field or count that
    differs; a count on one side only reads ``None`` on the other."""
    differ = [(field, pin[field], run[field]) for field in PINNED
              if run[field] != pin[field]]
    pinned, now = pin.get("counts", {}), run["counts"]
    differ += [(name, pinned.get(name), now.get(name))
               for name in sorted(pinned.keys() | now.keys())
               if pinned.get(name) != now.get(name)]
    return differ


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
        differ = _differences(pin, run)
        if differ:
            mismatches += 1
            for field, pinned_value, value in differ:
                print(f"MISMATCH {key[0]} seed {key[1]} {field}: "
                      f"pinned {pinned_value}, now {value}")
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
