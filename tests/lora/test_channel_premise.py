"""The decision margin's premise, checked at every listener of a dense cell.

``RadioChannel`` decides verdicts on cached rows of squared distances and
checks that the loss of a cached element lies within
``_DECISION_MARGIN_DB`` of the exact one wherever it computes an exact
value (``RadioChannel._exact_rssi``).  In a
deployment it computes exact values only for the delivered listeners that
have a receiver, which in a cell of sensors that only send is the gateway.
With a ``verdict_log`` set it computes them at every listener of every
completed frame, so this run puts the premise to every link of a
``radio_cell``-shaped cell (one gateway that receives, sensors that only
send, each about once a minute).
"""

from __future__ import annotations

import math
import random

from repro.lora import (DataFrame, LoRaFrame, LoRaRadio, Position,
                        RadioChannel)
from repro.sim.core import Simulator

SENSORS = 300
SIM_SECONDS = 60.0


def _sensor(sim, radio, rng):
    frame = DataFrame(sender=radio.name, encrypted_message=bytes(64),
                      signature=bytes(64))
    while True:
        yield sim.timeout(rng.expovariate(1.0 / 60.0))
        wait = radio.duty_cycle_wait()
        if wait > 0:
            yield sim.timeout(wait + 1e-6)
        yield from radio.send(frame)


def logged_cell(seed: int = 11):
    """Run the cell with a verdict log; return the channel and the number of
    frames the gateway's handler received."""
    rng = random.Random(seed)
    sim = Simulator()
    channel = RadioChannel(sim, random.Random(rng.getrandbits(64)))
    channel.verdict_log = []
    gateway = LoRaRadio("gateway", channel, position=Position(0.0, 0.0),
                        duty_cycle=0.1)
    heard: list[LoRaFrame] = []
    gateway.on_receive(lambda frame, rssi: heard.append(frame))
    for index in range(SENSORS):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        distance = rng.uniform(50.0, 4000.0)
        radio = LoRaRadio(f"sensor-{index}", channel, position=Position(
            distance * math.cos(angle), distance * math.sin(angle)))
        sim.process(_sensor(sim, radio, random.Random(rng.getrandbits(64))))
    sim.run(until=SIM_SECONDS)
    return channel, len(heard)


def test_premise_checked_at_every_listener_of_a_dense_cell(monkeypatch):
    checked = [0]
    real = RadioChannel._exact_rssi

    def exact_rssi(self, transmission, squared_row, at):
        checked[0] += len(self._xs[at])
        return real(self, transmission, squared_row, at)

    monkeypatch.setattr(RadioChannel, "_exact_rssi", exact_rssi)
    channel, heard = logged_cell()
    completed = channel.frames_sent - len(channel._active)
    assert completed > SENSORS // 2
    log = channel.verdict_log
    # One entry per listener of every completed frame, less the sender's
    # own radio (the half-duplex skip): every sender is a listener here.
    assert len(log) == completed * (SENSORS + 1) - completed
    # Every logged RSSI came out of the premise check.
    assert checked[0] >= completed * (SENSORS + 1) + heard
    verdicts = [verdict for _, _, verdict, _ in log]
    assert (verdicts.count("delivered"), verdicts.count("collision"),
            verdicts.count("sensitivity")) == (
        channel.frames_delivered, channel.frames_lost_collision,
        channel.frames_lost_sensitivity)
    assert 0 < heard == sum(1 for _, listener, verdict, _ in log
                            if listener == "gateway"
                            and verdict == "delivered")


def test_dense_cell_verdict_log_deterministic():
    first, heard = logged_cell(seed=23)
    second, heard_again = logged_cell(seed=23)
    assert first.verdict_log == second.verdict_log
    assert heard == heard_again
