"""``python -m bench.compare BASE.json CHANGE.json``: hold a change to the bounds.

Both files are results of ``python -m bench``.  One row is printed per
(workload, end-to-end metric) with both medians, their quartiles and n,
and the ratio CHANGE / BASE with its base.  A pair whose run-to-run spread
(quartile distance over median, either side) is wider than the metric's
bound is *unresolved*, not unchanged (and not regressed) — unless every run
of one side reads better than every run of the other.

Exit code 0: no regression.  1: a median is worse than the bound allows,
or a larger share of operations failed.  2: the two results cannot be
compared (seed, sizes or benchmark code differ).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Optional

from bench.metrics import END_TO_END, Metric

__all__ = ["verdict", "compare", "main"]


def incomparable(base: dict[str, Any], change: dict[str, Any]) -> list[str]:
    """Why the two results must not be compared (empty: they may be)."""
    reasons = []
    for key in ("seed", "seconds", "smoke", "bench_hash"):
        if base[key] != change[key]:
            reasons.append(f"{key}: {base[key]!r} vs {change[key]!r}")
    if set(base["workloads"]) != set(change["workloads"]):
        reasons.append("different workloads were run")
    for name in set(base["workloads"]) & set(change["workloads"]):
        sizes = (base["workloads"][name]["sizes"],
                 change["workloads"][name]["sizes"])
        if sizes[0] != sizes[1]:
            reasons.append(f"{name} sizes: {sizes[0]} vs {sizes[1]}")
    return reasons


def _spread(summary: dict[str, Any]) -> float:
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"])


def verdict(metric: Metric, base: dict[str, Any],
            change: dict[str, Any]) -> str:
    """``ok`` / ``better`` / ``unresolved`` / ``REGRESSION`` for one pair of
    metric summaries (``median``, ``q1``, ``q3``, ``values``)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"])
    regressed = worse_by > metric.bound * abs(base["median"])
    if max(_spread(base), _spread(change)) <= metric.bound:
        return "REGRESSION" if regressed else "ok"
    # Too noisy for the medians to decide either way: only a clean sweep
    # (every run of one side beats every run of the other) still counts.
    differences = [sign * (c - b)
                   for c in change["values"] for b in base["values"]]
    if regressed and all(d > 0 for d in differences):
        return "REGRESSION"
    if all(d < 0 for d in differences):
        return "better"
    return "unresolved"


def compare(base: dict[str, Any], change: dict[str, Any]) -> int:
    """Print the comparison; returns the process exit code."""
    reasons = incomparable(base, change)
    if reasons:
        print("refusing to compare:", file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    print(f"base   {base['git_sha']}  change {change['git_sha']}  "
          f"seed {base['seed']}  bench {base['bench_hash']}")
    print(f"{'workload':<15}{'metric':<24}{'unit':<7}"
          f"{'base median [q1, q3] n':<38}{'change median [q1, q3] n':<38}"
          f"{'change/base':<24}verdict")
    failures = 0
    for name, before in base["workloads"].items():
        after = change["workloads"][name]
        for metric in END_TO_END:
            if metric.name not in before["metrics"]:
                continue
            b, c = before["metrics"][metric.name], after["metrics"][metric.name]
            outcome = verdict(metric, b, c)
            failures += outcome == "REGRESSION"
            print(f"{name:<15}{metric.name:<24}{metric.unit:<7}"
                  f"{_cell(b):<38}{_cell(c):<38}"
                  f"{c['median'] / b['median']:.4f} of {b['median']:<12.6g}"
                  f"{outcome}")
        share_before = before["failed"] / before["attempted"]
        share_after = after["failed"] / after["attempted"]
        note = ""
        if share_after > share_before:
            failures += 1
            note = "  LARGER FAILED SHARE"
        print(f"{name:<15}failed share {share_before:.4f} "
              f"({before['failed']}/{before['attempted']}) -> "
              f"{share_after:.4f} ({after['failed']}/{after['attempted']})"
              f"{note}")
        if before["digest"] != after["digest"]:
            print(f"{name:<15}OUTPUT DIGEST DIFFERS: {before['digest'][:16]} "
                  f"vs {after['digest'][:16]} — behaviour changed")
    print("regressions: " + (str(failures) if failures else "none"))
    return 1 if failures else 0


def _cell(summary: dict[str, Any]) -> str:
    return (f"{summary['median']:.6g} [{summary['q1']:.6g}, "
            f"{summary['q3']:.6g}] {summary['n']}")


def main(argv: Optional[list[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, change = (json.loads(Path(path).read_text(encoding="utf-8"))
                    for path in paths)
    return compare(base, change)


if __name__ == "__main__":
    sys.exit(main())
