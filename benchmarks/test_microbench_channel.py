"""Radio channel microbenchmark: counted exact path-loss elements and rows
built, printed clocks.

**Squared distances decide, exact values leave, and only to a receiver**
— ``RadioChannel`` caches rows of clamped squared distances ``max(dx**2
+ dy**2, 1)`` (``_squared_row``: two subtractions, two in-place squares,
one add and one clamp; no logarithm) and decides both tests on them
against memoised bounds.  It computes exact ``math`` losses
(``PathLossModel.loss_row_db``) only where a verdict sits within the
decision margin of its threshold and for the RSSIs it hands out: those
of the delivered listeners that have a receive handler.  In the
1000-sensor cell of ``python -m bench --workload radio_cell`` only the
gateway has one, so a completed frame costs 0.15 exact elements (one per
frame the gateway hears; 0.148 in the shorter run here).  Computed for
every delivered listener, as when a radio with no handler was still
called, it was ≈ 92 (91.7 delivered listeners per frame here); when
every cached row was exact, ≈ 870 (0.87 rows of 1001 listeners; the run
here builds 0.895 rows, 896 elements).

The gates are on counts, which repeat exactly: the elements that pass
through the exact builder, at most ``EXACT_PER_FRAME_GATE`` per completed
frame, and the rows built, at most ``ROWS_PER_FRAME_GATE`` per
completed frame, so a faster kernel cannot hide a cache that keeps fewer
rows.  The microseconds per completion, at 31, 101 and 1001 listeners (a
paper site, a fleet site, this cell), are printed for the record only,
so the test also runs
in CI's ``--benchmark-disable`` lane on a host whose clock cannot be
trusted.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

from benchmarks.conftest import print_header, print_row
from repro.lora import (DataFrame, LoRaFrame, LoRaRadio, Position,
                        RadioChannel)
from repro.lora.channel import PathLossModel, _squared_row
from repro.sim.core import Simulator

SENSORS = 1000
SIM_SECONDS = 120.0
# Exact elements per completed frame when every cached row was exact.
ALL_EXACT_PER_FRAME = 870
# Exact elements per completed frame, at most: measured 0.148, the frames
# the gateway heard (no verdict in this run sat within the margin).
EXACT_PER_FRAME_GATE = 0.2
# Rows built per completed frame, at most: 1784 rows over the 1993
# frames of this run, what the row cache of 1 MiB builds here.
ROWS_PER_FRAME_GATE = 1784 / 1993
# The cells whose clock is printed: a paper site, a fleet site, this cell.
CLOCKED_CELLS = (30, 100, SENSORS)


def _sensor(sim, radio, rng):
    frame = DataFrame(sender=radio.name, encrypted_message=bytes(64),
                      signature=bytes(64))
    while True:
        yield sim.timeout(rng.expovariate(1.0 / 60.0))
        wait = radio.duty_cycle_wait()
        if wait > 0:
            yield sim.timeout(wait + 1e-6)
        yield from radio.send(frame)


def _cell(sensors: int = SENSORS
          ) -> tuple[Simulator, RadioChannel, list[LoRaFrame]]:
    """A gateway and ``sensors`` sensors on one channel, each sending about
    once a minute: the shape of the ``radio_cell`` benchmark workload, whose
    gateway alone has a receive handler.  Returns the frames it hears
    beside the simulator and the channel."""
    rng = random.Random(11)
    sim = Simulator()
    channel = RadioChannel(sim, random.Random(rng.getrandbits(64)))
    gateway = LoRaRadio("gateway", channel, position=Position(0.0, 0.0),
                        duty_cycle=0.1)
    heard: list[LoRaFrame] = []
    gateway.on_receive(lambda frame, rssi: heard.append(frame))
    for index in range(sensors):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(50.0, 4000.0)
        radio = LoRaRadio(f"sensor-{index}", channel, position=Position(
            distance * math.cos(angle), distance * math.sin(angle)))
        sim.process(_sensor(sim, radio, random.Random(rng.getrandbits(64))))
    return sim, channel, heard


def _completions(channel: RadioChannel, sensors: int) -> int:
    """Frames whose airtime ended: each is judged at every radio but its
    sender's own."""
    evaluated = (channel.frames_delivered + channel.frames_lost_collision
                 + channel.frames_lost_sensitivity)
    completed, remainder = divmod(evaluated, sensors)
    assert remainder == 0
    return completed


def _us_per_completion(sensors: int) -> float:
    """Microseconds per completed frame, event loop included, best of three
    runs of a cell that completes about as many frames as this one."""
    best = math.inf
    for _ in range(3):
        sim, channel, _ = _cell(sensors)
        start = time.perf_counter()
        sim.run(until=SIM_SECONDS * SENSORS / sensors)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / _completions(channel, sensors))
    return round(best * 1e6, 1)


def _ms_per_row(build, listeners: int = SENSORS + 1) -> float:
    rng = np.random.default_rng(7)
    dx, dy = (rng.uniform(-4000.0, 4000.0, listeners) for _ in range(2))
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(50):
            build(dx, dy)
        best = min(best, (time.perf_counter() - start) / 50)
    return round(best * 1e3, 4)


def test_exact_elements_per_frame(monkeypatch):
    exact_elements = [0]
    real = PathLossModel.loss_row_db

    def counted(self, dx, dy):
        exact_elements[0] += len(dx)
        return real(self, dx, dy)

    monkeypatch.setattr(PathLossModel, "loss_row_db", counted)
    sim, channel, heard = _cell()
    sim.run(until=SIM_SECONDS)
    completed = _completions(channel, SENSORS)
    assert completed > 1000
    per_frame = exact_elements[0] / completed
    rows_per_frame = channel.loss_rows_built / completed
    monkeypatch.undo()

    model = PathLossModel()
    print_header(f"Radio channel, {SENSORS} sensors + a gateway, "
                 f"{completed} completed frames")
    print_row("(columns)", "per frame")
    print_row("exact elements (gate)", round(per_frame, 3))
    print_row("  all exact, radio_cell", ALL_EXACT_PER_FRAME)
    print_row("  all exact, this cell", round(
        channel.loss_rows_built * (SENSORS + 1) / completed, 1))
    print_row("delivered listeners",
              round(channel.frames_delivered / completed, 1))
    print_row("receiving listeners (called)", round(len(heard) / completed, 3))
    print_row("rows built (gate)", round(rows_per_frame, 4))
    print_row("row look-ups", round((channel.loss_rows_built
                                     + channel.loss_row_hits) / completed, 2))
    for sensors in CLOCKED_CELLS:
        print_row(f"us per frame, {sensors + 1} listeners",
                  _us_per_completion(sensors))
    origin = Position(0.0, 0.0)
    print_row("ms per row, squared distances", _ms_per_row(
        lambda xs, ys: _squared_row(xs, ys, origin)))
    print_row("ms per row, exact builder", _ms_per_row(model.loss_row_db))

    assert per_frame <= EXACT_PER_FRAME_GATE, (
        f"{per_frame:.3f} exact elements per frame, more than "
        f"{EXACT_PER_FRAME_GATE}: exact RSSIs for radios nobody reads?")
    assert rows_per_frame <= ROWS_PER_FRAME_GATE, (
        f"{rows_per_frame:.4f} rows built per frame, more than "
        f"{ROWS_PER_FRAME_GATE:.4f}: the row cache keeps fewer rows?")
