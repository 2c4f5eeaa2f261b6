"""Radio endpoints: the device-side API over the shared channel.

:class:`LoRaRadio` wraps the medium with per-device state — position,
modulation, per-channel duty-cycle limiters, and a receive callback list
(the channel calls a radio only once that list has a handler) — and
exposes a blocking ``send`` process that picks the uplink channel with the
shortest regulatory wait (EU868 devices hop across sub-band channels, each
with its own duty budget) before keying the transmitter.  Both end devices
(nodes) and gateways hold one; gateways typically configure a single
high-duty downlink channel (869.525 MHz, 10 %).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.lora.channel import Listener, Position, RadioChannel, Transmission
from repro.lora.dutycycle import DutyCycleLimiter
from repro.lora.frames import LoRaFrame
from repro.lora.phy import MAX_PAYLOAD_BYTES, LoRaModulation

__all__ = ["LoRaRadio", "EU868_UPLINK_CHANNELS", "EU868_DOWNLINK_CHANNEL",
           "EU868_DOWNLINK_DUTY_CYCLE"]

# The three mandatory EU868 LoRaWAN join channels (1 % duty each).
EU868_UPLINK_CHANNELS = (868_100_000, 868_300_000, 868_500_000)
# The high-power RX2 downlink channel (10 % duty sub-band).
EU868_DOWNLINK_CHANNEL = 869_525_000
EU868_DOWNLINK_DUTY_CYCLE = 0.10


class LoRaRadio:
    """One device's attachment to the radio medium."""

    def __init__(self, name: str, channel: RadioChannel,
                 position: Optional[Position] = None,
                 modulation: Optional[LoRaModulation] = None,
                 duty_cycle: float = 0.01,
                 frequencies: Sequence[int] = EU868_UPLINK_CHANNELS,
                 power_dbm: float = 14.0) -> None:
        if not frequencies:
            raise ConfigurationError("radio needs at least one frequency")
        self.name = name
        self.channel = channel
        self.position = position or Position()
        self.modulation = modulation or LoRaModulation()
        self.frequencies = tuple(frequencies)
        self.limiters = {
            frequency: DutyCycleLimiter(duty_cycle=duty_cycle)
            for frequency in self.frequencies
        }
        self.power_dbm = power_dbm
        # One physical transmitter: concurrent protocol processes on the
        # same device serialize their sends.
        self._tx_lock = channel.sim.lock()
        self._receive_handlers: list[Callable[[LoRaFrame, float], None]] = []
        # No receiver until the first handler: a radio nobody reads is
        # counted by the channel, not called.
        channel.add_listener(Listener(
            name=name,
            position=self.position,
            half_duplex_owner=name,
        ))

    @property
    def sim(self):
        return self.channel.sim

    @property
    def total_airtime(self) -> float:
        return sum(l.total_airtime for l in self.limiters.values())

    @property
    def transmissions(self) -> int:
        return sum(l.transmissions for l in self.limiters.values())

    def on_receive(self, handler: Callable[[LoRaFrame, float], None]) -> None:
        """Register a callback for every frame this radio demodulates,
        from the next completed frame on."""
        if not self._receive_handlers:
            self.channel.set_deliver(self.name, self._on_frame)
        self._receive_handlers.append(handler)

    def _on_frame(self, frame: LoRaFrame, rssi: float) -> None:
        for handler in self._receive_handlers:
            handler(frame, rssi)

    def duty_cycle_wait(self) -> float:
        """Seconds until some channel permits the next transmission."""
        return self._pick_channel()[1]

    def _pick_channel(self) -> tuple[int, float]:
        """The frequency with the shortest regulatory wait (the first one
        on a tie) and that wait, in one pass over the limiters that stops
        at the first channel free now."""
        now = self.sim.now
        best = None
        for frequency, limiter in self.limiters.items():
            wait = limiter.wait_time(now)
            if not wait:
                return frequency, wait
            if best is None or wait < best[1]:
                best = frequency, wait
        return best

    def send(self, frame: LoRaFrame):
        """A simulation process: wait for duty cycle, transmit, wait airtime.

        Yields until the frame's airtime completes; returns the
        :class:`Transmission` record.  A frame longer than one LoRa PHY
        payload (``MAX_PAYLOAD_BYTES``) is refused with
        :class:`ConfigurationError` before the radio books anything.
        """
        size = frame.wire_size()
        if size > MAX_PAYLOAD_BYTES:
            raise ConfigurationError(
                f"{type(frame).__name__} of {size} bytes exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte LoRa payload")
        channel = self.channel
        sim = channel.sim
        yield self._tx_lock.acquire()
        try:
            frequency, wait = self._pick_channel()
            if wait > 0:
                yield sim.timeout(wait)
            # ``now + (not_before - now)`` can land one ulp short of
            # ``not_before``; the transmission counts from the permitted
            # instant, which is ``now`` itself in every other case.
            limiter = self.limiters[frequency]
            airtime = self.modulation.time_on_air(size)
            limiter.register(limiter.next_allowed(sim.now), airtime)
            transmission = channel.transmit(
                self.name, self.position, frame, self.modulation, frequency,
                self.power_dbm)
            yield sim.timeout(airtime)
        finally:
            self._tx_lock.release()
        return transmission
