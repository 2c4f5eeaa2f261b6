"""The seed radio channel: the oracle for ``repro.lora.channel``.

The delivery loop (``_deliver_scalar`` in ``src/`` while ``RadioChannel``
still took ``kernel=``), ``_received_power`` and
``_suppressed_by_collision`` exactly as they stood there: one listener at a
time, one interferer at a time, one :func:`loss_db` call per link.  The
interferer tests, :func:`overlaps` and :func:`interferes_with`, are the
seed's ``Transmission`` methods of those names (the production channel
inlines them).  The scalar path loss, :func:`distance` and
:func:`loss_db`, is the seed's ``Position.distance_to`` and
``PathLossModel.loss_db``; the production ``PathLossModel.loss_row_db``
is these two, bit for bit, over a row.
Around them this channel knows nothing the production one knows — no
numpy, no cached path-loss row, no listener snapshot, and no pruned
interferer window: a completing frame is checked against every
transmission the channel ever carried.  ``tests/lora/`` and
``benchmarks/test_scaling_fleet.py`` drive both channels through the same
public calls and require the same verdict log, RSSI bits, counters and
delivery order.  A listener whose ``deliver`` is ``None`` is
evaluated and counted like any other; only the call is skipped.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.lora.channel import (Listener, PathLossModel, Position,
                                Transmission)
from repro.lora.frames import LoRaFrame
from repro.lora.phy import LoRaModulation, SENSITIVITY_DBM
from repro.sim.core import Simulator

__all__ = ["ReferenceRadioChannel", "distance", "frame_counters",
           "loss_db"]


def distance(a: Position, b: Position) -> float:
    """Metres between two positions."""
    return math.hypot(a.x - b.x, a.y - b.y)


def loss_db(model: PathLossModel, metres: float) -> float:
    """``model``'s log-distance loss at ``metres``, clamped to 1 m."""
    metres = max(metres, 1.0)
    return model.REFERENCE_LOSS_DB + 10 * model.EXPONENT * math.log10(
        metres / model.REFERENCE_DISTANCE
    )


def overlaps(a: Transmission, b: Transmission) -> bool:
    """The two frames share some instant on the air."""
    return a.start < b.end and b.start < a.end


def interferes_with(a: Transmission, b: Transmission) -> bool:
    """Same channel and spreading factor (orthogonal SFs ignored)."""
    return (a.frequency_hz == b.frequency_hz
            and a.modulation.spreading_factor
            == b.modulation.spreading_factor)


def frame_counters(channel) -> tuple[int, int, int, int]:
    """The frame counters of either channel, as one comparable tuple."""
    return (channel.frames_sent, channel.frames_delivered,
            channel.frames_lost_sensitivity, channel.frames_lost_collision)


class ReferenceRadioChannel:
    """``RadioChannel``'s public surface over the per-listener loop."""

    def __init__(self, sim: Simulator, rng: random.Random,
                 capture_threshold_db: float = 6.0) -> None:
        self.sim = sim
        self.path_loss = PathLossModel()
        self.capture_threshold_db = capture_threshold_db
        self._listeners: dict[str, Listener] = {}
        self._active: list[Transmission] = []
        self._ended: list[Transmission] = []  # never pruned
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_sensitivity = 0
        self.frames_lost_collision = 0
        self.verdict_log: Optional[list] = None

    def add_listener(self, listener: Listener) -> None:
        if listener.name in self._listeners:
            raise ConfigurationError(f"duplicate listener: {listener.name}")
        self._listeners[listener.name] = listener

    def set_deliver(self, name: str, deliver) -> None:
        self._listeners[name].deliver = deliver

    def transmit(self, sender: str, position: Position, frame: LoRaFrame,
                 modulation: LoRaModulation, frequency_hz: int = 868_100_000,
                 power_dbm: float = 14.0):
        airtime = modulation.time_on_air(frame.wire_size())
        transmission = Transmission(
            sender=sender, frame=frame, modulation=modulation,
            frequency_hz=frequency_hz, power_dbm=power_dbm,
            position=position, start=self.sim.now, end=self.sim.now + airtime,
        )
        self._active.append(transmission)
        self.frames_sent += 1
        self.sim.call_at(transmission.end, lambda: self._complete(transmission))
        return transmission

    def _complete(self, transmission: Transmission) -> None:
        self._active.remove(transmission)
        self._ended.append(transmission)
        # Frames on the air first, then ended ones in completion order.
        interferers = [
            other for other in (self._active + self._ended)
            if other is not transmission
            and overlaps(transmission, other)
            and interferes_with(transmission, other)
        ]
        self._deliver(transmission, interferers)

    # -- the seed loop, verbatim ------------------------------------------------

    def _deliver(self, transmission: Transmission,
                 interferers: list[Transmission]) -> None:
        log = self.verdict_log
        for listener in list(self._listeners.values()):
            if listener.half_duplex_owner == transmission.sender:
                continue
            rssi = self._received_power(transmission, listener.position)
            sf = transmission.modulation.spreading_factor
            if rssi < SENSITIVITY_DBM[sf]:
                self.frames_lost_sensitivity += 1
                if log is not None:
                    log.append((transmission.sender, listener.name,
                                "sensitivity", rssi))
                continue
            if self._suppressed_by_collision(transmission, interferers,
                                             listener.position, rssi):
                self.frames_lost_collision += 1
                if log is not None:
                    log.append((transmission.sender, listener.name,
                                "collision", rssi))
                continue
            self.frames_delivered += 1
            if log is not None:
                log.append((transmission.sender, listener.name,
                            "delivered", rssi))
            if listener.deliver is not None:  # counted, not delivered
                listener.deliver(transmission.frame, rssi)

    def _received_power(self, transmission: Transmission,
                        at: Position) -> float:
        return transmission.power_dbm - loss_db(
            self.path_loss, distance(transmission.position, at))

    def _suppressed_by_collision(self, transmission: Transmission,
                                 interferers: list[Transmission],
                                 at: Position, rssi: float) -> bool:
        """Capture-effect collision resolution at one listener."""
        for other in interferers:
            other_rssi = self._received_power(other, at)
            if rssi - other_rssi < self.capture_threshold_db:
                return True
        return False
