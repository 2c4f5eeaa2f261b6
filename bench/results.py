"""Result files: what identifies a set of runs, and how runs are summarised.

A *result* is the JSON ``python -m bench`` writes to
``bench/results/<sha>-<seed>.json``; a *history row* is its compact form,
one line of ``bench/history.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Iterable

from bench import ROOT

__all__ = ["BENCH_DIR", "HISTORY", "RESULTS_DIR", "quartiles", "bench_hash",
           "git_sha", "host_facts", "summarise", "history_row"]

BENCH_DIR = ROOT / "bench"
RESULTS_DIR = BENCH_DIR / "results"
HISTORY = BENCH_DIR / "history.jsonl"


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# The modules a number depends on; compare.py and the tests read results.
MEASURING_MODULES = ("__init__.py", "__main__.py", "hostspeed.py",
                     "metrics.py", "results.py", "tracing.py", "workloads.py")


def bench_hash() -> str:
    """sha256 over the code that measures (not the manual or the outputs)."""
    hasher = hashlib.sha256()
    for name in MEASURING_MODULES:
        hasher.update(name.encode("utf-8"))
        hasher.update((BENCH_DIR / name).read_bytes())
    return hasher.hexdigest()[:16]


def git_sha() -> str:
    """HEAD, with ``-dirty`` when the tree measured differs from it."""
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12",
             "--exclude=*"], cwd=ROOT,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return completed.stdout.strip()


def host_facts() -> dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "load_average_1m": os.getloadavg()[0],
    }


def summarise(untraced: list[dict], traced: dict) -> dict[str, Any]:
    """One workload's entry of a result, from its runs' detail records."""
    first = untraced[0]
    for run in untraced[1:] + [traced]:
        for key in ("digest", "attempted", "failed", "sizes"):
            if run[key] != first[key]:
                raise ValueError(
                    f"{first['workload']}: {key} differs between runs of "
                    f"one seed ({first[key]!r} vs {run[key]!r})")
    metrics = {}
    for name, unit in first["units"].items():
        values = [run["metrics"][name] for run in untraced]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"unit": unit, "n": len(values), "median": median,
                         "q1": q1, "q3": q3, "values": values}
    untraced_s = statistics.median(run["timed_s"] for run in untraced)
    layers = dict(traced["layers"])
    # Measured, as against the in-run estimate obs.span_cost_share: the
    # reference seconds of the traced run's timed phase over the median of
    # the untraced runs'.
    layers["obs.trace_overhead_ratio"] = traced["timed_s"] / untraced_s
    return {
        "sizes": first["sizes"],
        "derived_seed": first["derived_seed"],
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": first["digest"],
        "metrics": metrics,
        "layers": layers,
        "spans": traced["spans"],
        "untraced_timed_s": untraced_s,
        "traced_timed_s": traced["timed_s"],
    }


def history_row(result: dict[str, Any]) -> str:
    """The compact, one-line form of a result."""
    row = {key: result[key] for key in
           ("git_sha", "seed", "seconds", "repeats", "bench_hash")}
    row["nproc"] = result["host"]["nproc"]
    row["workloads"] = {
        name: {
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "digest": entry["digest"],
            # [median, q1, q3, n]
            "metrics": {metric: [s["median"], s["q1"], s["q3"], s["n"]]
                        for metric, s in entry["metrics"].items()},
            "layers": entry["layers"],
        }
        for name, entry in result["workloads"].items()
    }
    return json.dumps(row, sort_keys=True)
