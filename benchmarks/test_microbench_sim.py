"""Event-loop microbenchmark: a fixed kernel mix, counted events, printed clocks.

Every simulated workload runs on ``repro.sim.core.Simulator``: one heap
pop and one event processed per step.  The mix here exercises each kind
of event the program schedules — ``WORKERS`` processes, each looping
``ROUNDS`` times over a timeout, a ``call_in`` callback that fires a
plain event, an ``AnyOf`` race between that event and a timeout, and a
child process it waits for — with delays drawn from a coarse grid, so
equal-time ties (the seed loop's insertion-order tie-break) are the
common case.

The gate is on the *count* of events processed, which repeats exactly:
a kernel that schedules one event more or less per step changes it.  The
microseconds per event are printed for the record only, so the test also
runs in CI's ``--benchmark-disable`` lane on a host whose clock cannot be
trusted.  Beside them, on the record too, the same mix on the layered
kernel the flat per-event path replaced (``tests/oracles/sim_reference.py``),
the two run alternately.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import print_header, print_row
from repro.sim import core
from tests.oracles import sim_reference

WORKERS = 200
ROUNDS = 50
DELAYS = (0.0, 0.25, 0.5, 1.0)
# Events one run of the mix processes: eight per round (the timeout; the
# callback's timeout and the event it fires; the race's timeout and the
# AnyOf; the child's start, timeout and return), plus each worker's start
# and return: 200 x (8 x 50 + 2).
EVENTS = 80_400


def _child(sim, delay):
    yield sim.timeout(delay)
    return delay


def _worker(sim, rng, finished):
    for _ in range(ROUNDS):
        yield sim.timeout(rng.choice(DELAYS))
        signal = sim.event()
        sim.call_in(rng.choice(DELAYS), signal.succeed)
        yield sim.any_of((signal, sim.timeout(rng.choice(DELAYS))))
        yield sim.process(_child(sim, rng.choice(DELAYS)))
    finished.append(sim.now)


def _run_mix(kernel=core) -> tuple[core.Simulator, list[float], float]:
    rng = random.Random(11)
    sim = kernel.Simulator()
    finished: list[float] = []
    for _ in range(WORKERS):
        sim.process(_worker(sim, random.Random(rng.getrandbits(64)),
                            finished))
    start = time.perf_counter()
    sim.run()
    return sim, finished, time.perf_counter() - start


def test_event_loop_mix_counts_and_clock():
    runs, earlier = [], []
    for _ in range(3):
        earlier.append(_run_mix(sim_reference))
        runs.append(_run_mix())
    sim, finished, _elapsed = runs[0]
    best = min(elapsed for _sim, _finished, elapsed in runs)
    best_earlier = min(elapsed for _sim, _finished, elapsed in earlier)
    events = sim.events_processed

    print_header(f"Event loop, {WORKERS} processes x {ROUNDS} rounds "
                 f"(timeout, call_in, AnyOf race, child process)")
    print_row("(columns)", "value")
    print_row("events processed (gate)", events)
    print_row("events per round", round(events / (WORKERS * ROUNDS), 3))
    print_row("simulated seconds", round(sim.now, 3))
    print_row("us per event (best of 3)", round(best / events * 1e6, 3))
    print_row("  earlier kernel (record)",
              round(best_earlier / events * 1e6, 3))

    assert len(finished) == WORKERS
    assert all(other.events_processed == events
               for other, _f, _e in runs + earlier)
    assert events == EVENTS, (
        f"{events} events for the fixed mix, not {EVENTS}: the kernel "
        f"schedules a different number of events per step")
