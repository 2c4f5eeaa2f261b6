"""``python -m bench``: run the benchmark.

With ``--workload NAME`` it is one measured run in this process, ending
in one JSON line (the form ``BENCHMARK.json`` declares).  Without, it is
the full set: every workload, ``--repeats`` untraced runs and one traced
run each, one child process per run, one at a time; it prints every
end-to-end metric with n, median and quartiles and writes
``bench/results/<sha>-<seed>.json``.

Exit code 0: all checks passed.  1: a correctness check failed (no number
is printed for that workload).  2: the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from bench import NOMINAL_SECONDS, ROOT, SRC

DEFAULT_SEED = 11  # 23 is the held-out seed nobody tunes on
DETAIL_PREFIX = "detail "


def parse_arguments(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload once, here")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="target length of the timed phases; sizes "
                             "scale linearly with it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: record spans and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: seconds per workload, for tests")
    parser.add_argument("--repeats", type=int, default=5,
                        help="untraced runs per workload in the full set")
    parser.add_argument("--append-history", action="store_true",
                        help="full set: add the row to bench/history.jsonl")
    return parser.parse_args(argv)


# -- one run, in this process -----------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, import_s: float = 0.0) -> dict[str, Any]:
    """Set up and run one workload; returns the run's detail record.

    ``import_s`` is what importing the program took in this process, in
    reference seconds (:mod:`bench.hostspeed`) like every host time here.
    Raises :class:`bench.workloads.CheckFailed` when an output is wrong.
    """
    from bench import metrics, tracing, workloads

    workload = workloads.WORKLOADS[name]
    sizes = workload.sizes(seconds, smoke)
    derived_seed = workloads.workload_seed(seed, name)
    recorder = tracing.Recorder() if trace else None
    span_cost_ns = recorder.span_cost_ns() if recorder else 0.0

    wall_start = time.perf_counter()
    if recorder is not None:
        recorder.install()
        root = recorder.begin(metrics.ROOT_SPAN)
    try:
        setups, speeds = [], []
        state = None
        for _ in range(workload.setup_repeats):
            state = None  # release the previous set-up before timing the next
            state, stretch = workloads.measured(
                workload.setup, derived_seed, sizes, recorder)
            setups.append(stretch.reference_s)
            speeds.append(stretch.speed)
        outcome = workload.run(state, sizes, recorder)
    finally:
        if recorder is not None:
            recorder.end(root)
            recorder.restore()
    wall_s = time.perf_counter() - wall_start

    values = dict(outcome.metrics)
    # From process start of the workload to ready-to-run: importing the
    # program is part of it, so work moved to import time still shows.
    values["setup_s"] = import_s + statistics.median(setups)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    units = {m.name: m.unit for m in metrics.END_TO_END if m.name in values}
    detail: dict[str, Any] = {
        "workload": name, "seed": seed, "derived_seed": derived_seed,
        "seconds": seconds, "smoke": smoke, "trace": int(trace),
        "sizes": sizes, "attempted": outcome.attempted,
        "failed": outcome.failed, "digest": outcome.digest,
        "metrics": values, "units": units,
        "import_s": import_s, "setup_samples_s": setups,
        # reference seconds of the timed phase; raw wall of the whole run
        "timed_s": outcome.timed_s, "wall_s": wall_s,
        # how fast the host was: raw host seconds = reference / speed
        "host_speed": {"setup": speeds,
                       "timed": outcome.timed_s / outcome.raw_s},
    }
    if recorder is not None:
        detail["layers"], detail["spans"] = metrics.layer_metrics(
            recorder.spans, outcome.counters, values, span_cost_ns)
    return detail


def single_run(args: argparse.Namespace) -> int:
    from bench.hostspeed import BURST, Stretch
    importing = Stretch()
    importing.probe(BURST)
    workloads = importing.call(importlib.import_module, "bench.workloads")
    importing.probe(BURST)
    import_s = importing.reference_s
    from bench import metrics
    from bench.results import host_facts

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        detail = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, import_s)
    except workloads.CheckFailed as failure:
        print(f"{args.workload}: CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    detail["host"] = host_facts()
    if args.trace:
        line = {name: {"value": detail["layers"][name], "unit": unit}
                for name, unit, _ in metrics.PER_LAYER}
    else:
        rate = workloads.WORKLOADS[args.workload].rate
        line = {d["name"]: {"value": detail["metrics"]
                            [rate if d["name"] == metrics.RATE else d["name"]],
                            "unit": d["unit"]}
                for d in metrics.declared_end_to_end()}
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": line,
    }))
    return 0


# -- the full set: one child process per run, one at a time ------------------------

def child_run(workload: str, args: argparse.Namespace,
              trace: int) -> Optional[dict[str, Any]]:
    """One run in a fresh process; its detail record, or None if it failed."""
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    if completed.returncode != 0:
        return None
    for line in completed.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    return None


def warn_if_busy(host: dict[str, Any]) -> None:
    if host["load_average_1m"] > host["nproc"] - 0.5:
        print(f"warning: 1-minute load average "
              f"{host['load_average_1m']:.2f} on {host['nproc']} cores; "
              f"host timings will be noisy", file=sys.stderr)


def print_workload(name: str, entry: dict[str, Any]) -> None:
    print(f"\n{name}  sizes={entry['sizes']}  attempted={entry['attempted']} "
          f"failed={entry['failed']}  digest={entry['digest'][:16]}")
    print(f"  {'metric':<24}{'unit':<7}{'n':>3}{'median':>14}"
          f"{'q1':>14}{'q3':>14}")
    for metric, summary in entry["metrics"].items():
        print(f"  {metric:<24}{summary['unit']:<7}{summary['n']:>3}"
              f"{summary['median']:>14.4f}{summary['q1']:>14.4f}"
              f"{summary['q3']:>14.4f}")
    layers = entry["layers"]
    print(f"  traced/untraced timed phase "
          f"{layers['obs.trace_overhead_ratio']:.3f}, "
          f"unattributed share {layers['obs.unattributed_share']:.3f}; "
          f"largest layer self times:")
    busiest = sorted(entry["spans"].items(),
                     key=lambda item: -item[1]["self_s"])[:6]
    for span, row in busiest:
        print(f"    {span:<28}{row['self_s']:>9.3f} s"
              f"{row['calls']:>9} calls")


def full_set(args: argparse.Namespace) -> int:
    from bench import workloads
    from bench.results import (HISTORY, RESULTS_DIR, bench_hash, git_sha,
                               history_row, host_facts, summarise)

    host = host_facts()
    warn_if_busy(host)
    result: dict[str, Any] = {
        "schema": 1, "git_sha": git_sha(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "repeats": args.repeats, "bench_hash": bench_hash(), "host": host,
        "workloads": {},
    }
    failed = []
    for name in workloads.WORKLOADS:
        runs = [child_run(name, args, trace=0) for _ in range(args.repeats)]
        runs.append(child_run(name, args, trace=1))
        if any(run is None for run in runs):
            failed.append(name)
            print(f"\n{name}: a run failed; no numbers reported")
            continue
        entry = summarise(runs[:-1], runs[-1])
        result["workloads"][name] = entry
        print_workload(name, entry)
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = RESULTS_DIR / f"{result['git_sha']}-{args.seed}{suffix}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.append_history:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(history_row(result) + "\n")
        print(f"appended a row to {HISTORY.relative_to(ROOT)}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_arguments(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        return single_run(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
