"""Alternating base/change pairs from fresh clones: how a timing claim is made.

One workload is run ``pairs`` times per seed in each of two fresh local
``git clone``s — the base revision and the change — one untraced
``python -m bench --workload W --seed S`` at a time.  The side that runs
first alternates every pair, so neither side always meets the host warmer
(or quieter) than the other, and a clone, not the working tree, is what is
measured: a working tree has read a few per cent off a clone of the same
files.  The two clones sit at paths of one length (``CLONE_DIRS``): with
the clones named after their sides, rounds of one revision against itself
read ~0.15 MB more peak RSS in the clone named ``change`` in 42 of 48
pairs, whichever side it held (EXPERIMENTS.md, "The A/A rounds").  Per
seed it prints every pair, then per end-to-end metric the change's wins,
both medians with their quartiles and the ratio of the medians.  Timings
are only comparable between runs of one program, so any pair whose sides
differ in digest, attempted or failed is flagged, and the command exits 1.
With ``out``, each side's runs of each seed are also written as the result
``python -m bench`` writes (``base-<seed>.json``, ``change-<seed>.json``),
so ``python -m bench.compare`` can hold the pairs to the bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

from tools.trajectory.pins import PINNED, ROOT

SIDES = ("base", "change")
#: Each side's clone directory: equal lengths, so neither side's program
#: sees longer paths than the other's.
CLONE_DIRS = {"base": "side-a", "change": "side-b"}
Runner = Callable[[Path, str, int], dict[str, Any]]


def resolve(revision: str) -> str:
    """The commit sha ``revision`` names in this repository."""
    completed = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True)
    if completed.returncode != 0:
        raise ValueError(f"no commit named {revision!r} in {ROOT}")
    return completed.stdout.strip()


def clone(sha: str, destination: Path) -> Path:
    """A fresh local clone of this repository, checked out at ``sha``."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT),
                    str(destination)], check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", sha],
                   cwd=destination, check=True)
    return destination


def bench_run(checkout: Path, workload: str, seed: int) -> dict[str, Any]:
    """One untraced benchmark run in ``checkout``; its detail record."""
    from bench.__main__ import DETAIL_PREFIX

    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    for line in completed.stdout.splitlines():
        if completed.returncode == 0 and line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    raise RuntimeError(f"{workload} seed {seed} failed in {checkout} "
                       f"(exit {completed.returncode})")


def bench_hash(checkout: Path) -> str:
    """The checkout's own ``bench.results.bench_hash()``."""
    completed = subprocess.run(
        [sys.executable, "-c",
         "from bench.results import bench_hash; print(bench_hash())"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return completed.stdout.strip()


def run_pairs(runner: Runner, checkouts: dict[str, Path], workload: str,
              seeds: list[int], pairs: int) -> list[dict[str, Any]]:
    """``pairs`` pairs per seed; the first side alternates every pair."""
    rows = []
    for seed in seeds:
        for pair in range(1, pairs + 1):
            order = SIDES if len(rows) % 2 == 0 else SIDES[::-1]
            runs = {side: runner(checkouts[side], workload, seed)
                    for side in order}
            rows.append({"seed": seed, "pair": pair, "first": order[0],
                         **runs})
    return rows


def summarise(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Per end-to-end metric of a seed's pairs: wins, medians, ratio."""
    from bench.metrics import END_TO_END
    from bench.results import quartiles

    better = {metric.name: metric.better for metric in END_TO_END}
    summaries = []
    for name in rows[0]["base"]["metrics"]:
        values = {side: [row[side]["metrics"][name] for row in rows]
                  for side in SIDES}
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(sign * (change - base) > 0
                   for base, change in zip(values["base"], values["change"]))
        base_q, change_q = quartiles(values["base"]), quartiles(values["change"])
        summaries.append({
            "metric": name, "better": better[name],
            "wins": wins, "pairs": len(rows),
            "base": base_q, "change": change_q,
            "ratio": change_q[1] / base_q[1]})
    return summaries


def results(rows: list[dict[str, Any]], shas: dict[str, str],
            hashes: dict[str, str]) -> dict[str, dict[str, Any]]:
    """``{"<side>-<seed>": result}``: each side's runs of a seed as the
    result file of ``python -m bench`` (untraced, so no layers)."""
    from bench.results import quartiles

    files = {}
    for seed in dict.fromkeys(row["seed"] for row in rows):
        for side in SIDES:
            runs = [row[side] for row in rows if row["seed"] == seed]
            first = runs[0]
            metrics = {}
            for name, unit in first["units"].items():
                values = [run["metrics"][name] for run in runs]
                q1, median, q3 = quartiles(values)
                metrics[name] = {"unit": unit, "n": len(values),
                                 "median": median, "q1": q1, "q3": q3,
                                 "values": values}
            entry = {key: first[key] for key in (
                "sizes", "derived_seed", "attempted", "failed", "digest")}
            files[f"{side}-{seed}"] = {
                "schema": 1, "git_sha": shas[side][:12], "seed": seed,
                "seconds": first["seconds"], "smoke": first["smoke"],
                "repeats": len(runs), "bench_hash": hashes[side],
                "host": first["host"],
                "workloads": {first["workload"]: {**entry,
                                                  "metrics": metrics}}}
    return files


def mismatches(rows: list[dict[str, Any]]) -> list[str]:
    """One line per pair and pinned field where the two sides differ."""
    return [f"MISMATCH seed {row['seed']} pair {row['pair']} {field}: "
            f"base {row['base'][field]}, change {row['change'][field]}"
            for row in rows for field in PINNED
            if row["base"][field] != row["change"][field]]


def _quartile_cell(q: tuple[float, float, float]) -> str:
    q1, median, q3 = q
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def report(rows: list[dict[str, Any]]) -> int:
    """Print the pair tables and summaries; the exit code."""
    flagged = mismatches(rows)
    for seed in dict.fromkeys(row["seed"] for row in rows):
        of_seed = [row for row in rows if row["seed"] == seed]
        names = list(of_seed[0]["base"]["metrics"])
        print(f"\nseed {seed}")
        print(f"  {'pair':<6}{'first':<8}" + "".join(
            f"{name + ' base/change':>36}" for name in names))
        for row in of_seed:
            cells = "".join(
                f"{row['base']['metrics'][name]:>17.6g} /"
                f"{row['change']['metrics'][name]:>17.6g}" for name in names)
            print(f"  {row['pair']:<6}{row['first']:<8}{cells}")
        print(f"  {'metric':<26}{'better':<8}{'wins':<8}"
              f"{'base median [q1, q3]':<38}{'change median [q1, q3]':<38}"
              f"ratio")
        for summary in summarise(of_seed):
            print(f"  {summary['metric']:<26}{summary['better']:<8}"
                  f"{summary['wins']}/{summary['pairs']:<6}"
                  f"{_quartile_cell(summary['base']):<38}"
                  f"{_quartile_cell(summary['change']):<38}"
                  f"{summary['ratio']:.4f}")
        if mismatches(of_seed):
            print("  the sides ran different programs: see MISMATCH below")
        else:
            first = of_seed[0]["base"]
            print("  " + " ".join(f"{field} {first[field]}"
                                  for field in PINNED)
                  + f": equal on both sides in all {len(of_seed)} pairs")
    for line in flagged:
        print(line)
    return 1 if flagged else 0


def pairs_command(base: str, change: str, workload: str, seeds: list[int],
                  pairs: int, runner: Runner = bench_run,
                  checkout: Callable[[str, Path], Path] = clone,
                  out: Optional[Path] = None) -> int:
    try:
        shas = {"base": resolve(base), "change": resolve(change)}
    except ValueError as unknown:
        print(f"FAILED: {unknown}")
        return 1
    print(f"pairs: base {shas['base'][:12]}  change {shas['change'][:12]}  "
          f"workload {workload}  seeds {','.join(map(str, seeds))}  "
          f"{pairs} pairs per seed, fresh clones, first side alternating")
    with tempfile.TemporaryDirectory(prefix="trajectory-pairs-") as scratch:
        checkouts = {side: checkout(shas[side],
                                    Path(scratch) / CLONE_DIRS[side])
                     for side in SIDES}
        try:
            rows = run_pairs(runner, checkouts, workload, seeds, pairs)
        except RuntimeError as failure:
            print(f"FAILED: {failure}")
            return 1
        if out is not None:
            hashes = {side: bench_hash(checkouts[side]) for side in SIDES}
            out.mkdir(parents=True, exist_ok=True)
            for name, result in results(rows, shas, hashes).items():
                path = out / f"{name}.json"
                path.write_text(json.dumps(result, indent=1, sort_keys=True)
                                + "\n")
                print(f"wrote {path}")
    return report(rows)
