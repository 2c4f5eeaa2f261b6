"""The altruistic-blockchain baseline (Durand et al. [26]).

The related-work system the paper positions itself against: a blockchain
acts purely as an *activation/directory* server; gateways forward data to
the recipient resolved on-chain but receive **no reward**.  Latency is
lower than BcWAN (no fair-exchange transactions on the critical path),
but — as the paper argues — "their solution does not incentive gateways
of the network and thus it reduces users interest in deploying gateways".

The model makes that argument quantitative with a ``participation``
parameter: the fraction of foreign gateways willing to forward for free.
Delivery rate degrades linearly with participation, while BcWAN holds at
(radio-loss-limited) full delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.baselines.lorawan import BaselineReport
from repro.core.config import CELL_RADIUS, NetworkConfig
from repro.obs.exchange import ExchangeTracker
from repro.errors import ConfigurationError
from repro.lora.channel import Position, RadioChannel
from repro.lora.device import (EU868_DOWNLINK_CHANNEL,
                               EU868_DOWNLINK_DUTY_CYCLE, LoRaRadio)
from repro.lora.frames import DataFrame
from repro.lora.phy import LoRaModulation
from repro.p2p.message import Envelope
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import PlanetLabLatencyMatrix
from repro.sim.rng import RngRegistry

__all__ = ["AltruisticBaseline"]

# Directory lookup against the local chain copy.
_LOOKUP = 0.040
# Gateway frame handling.
_GW_FORWARDING = 0.004
# Recipient-side decryption (static keys; no ephemeral unwrap).
_DECRYPT = 0.012


class AltruisticBaseline:
    """Blockchain-as-directory forwarding with voluntary gateways."""

    def __init__(self, config: Optional[NetworkConfig] = None,
                 participation: float = 1.0) -> None:
        if not 0 <= participation <= 1:
            raise ConfigurationError(
                f"participation must be in [0, 1]: {participation}"
            )
        self.config = config or NetworkConfig()
        self.participation = participation
        cfg = self.config
        self.rngs = RngRegistry(cfg.seed)
        self.sim = Simulator()
        self.tracker = ExchangeTracker()
        self._exchanges_launched = 0
        self.drops_unwilling = 0

        hosts = cfg.site_names
        latency = PlanetLabLatencyMatrix(
            hosts, seed=cfg.seed ^ 0x5EED,
            median_range=cfg.wan_median_range,
        )
        self.wan = WANetwork(self.sim, self.rngs.stream("wan"), latency)
        for name in hosts:
            self.wan.register(name, self._at_recipient)

        decision_rng = self.rngs.stream("participation")
        self.gateway_willing = [
            decision_rng.random() < participation
            for _ in range(cfg.num_gateways)
        ]

        modulation = LoRaModulation(spreading_factor=cfg.spreading_factor)
        self.channels = []
        for i, name in enumerate(cfg.site_names):
            channel = RadioChannel(self.sim, self.rngs.stream(f"radio-{name}"))
            radio = LoRaRadio(
                f"gw-{i}", channel, position=Position(0.0, 0.0),
                modulation=modulation, duty_cycle=EU868_DOWNLINK_DUTY_CYCLE,
                frequencies=(EU868_DOWNLINK_CHANNEL,), power_dbm=27.0,
            )
            radio.on_receive(
                lambda frame, rssi, index=i: self._at_gateway(index, frame)
            )
            self.channels.append(channel)
        self._deploy_sensors(modulation)

    def _deploy_sensors(self, modulation: LoRaModulation) -> None:
        cfg = self.config
        placement = self.rngs.stream("placement")
        self.sensor_radios: list[tuple[str, LoRaRadio]] = []
        for i in range(cfg.num_gateways):
            host_cell = (i + cfg.roaming_offset) % cfg.num_gateways
            for j in range(cfg.sensors_per_gateway):
                device_id = f"dev-{i}-{j}"
                angle = placement.uniform(0, 2 * math.pi)
                radius = CELL_RADIUS * math.sqrt(placement.random())
                radio = LoRaRadio(
                    device_id, self.channels[host_cell],
                    position=Position(radius * math.cos(angle),
                                      radius * math.sin(angle)),
                    modulation=modulation,
                )
                self.sensor_radios.append((device_id, radio))

    # -- protocol -------------------------------------------------------------------

    def _at_gateway(self, gateway_index: int, frame) -> None:
        if not isinstance(frame, DataFrame):
            return
        record = self.tracker.get(frame.nonce)
        if record is not None:
            record.t_data_received = self.sim.now
            record.gateway = f"gw-{gateway_index}"
        if not self.gateway_willing[gateway_index]:
            # No incentive, no forwarding — the argument against
            # altruistic designs made concrete.
            self.drops_unwilling += 1
            if record is not None and record.status == "pending":
                record.status = "failed"
                record.failure_reason = "gateway unwilling (no incentive)"
            return

        def forward():
            yield self.sim.timeout(_GW_FORWARDING + _LOOKUP)
            owner = int(frame.sender.split("-")[1])
            self.wan.send(self.config.site_names[gateway_index],
                          self.config.site_names[owner], frame)
        self.sim.process(forward())

    def _at_recipient(self, envelope: Envelope) -> None:
        frame = envelope.payload
        if not isinstance(frame, DataFrame):
            return

        def settle():
            yield self.sim.timeout(_DECRYPT)
            record = self.tracker.get(frame.nonce)
            if record is not None:
                record.t_delivered = self.sim.now
                record.t_decrypted = self.sim.now
                record.status = "completed"
        self.sim.process(settle())

    # -- workload --------------------------------------------------------------------

    def _sensor_loop(self, device_id: str, radio: LoRaRadio, budget_check):
        cfg = self.config
        rng = self.rngs.stream(f"workload-{device_id}")
        yield self.sim.timeout(rng.uniform(0, cfg.exchange_interval))
        while budget_check():
            self._exchanges_launched += 1
            record = self.tracker.new_exchange(device_id, b"reading")
            record.t_request = self.sim.now

            def one_uplink(record=record, radio=radio, device_id=device_id):
                transmission = yield from radio.send(DataFrame(
                    sender=device_id,
                    encrypted_message=b"\x00" * 64,
                    signature=b"\x00" * 64,
                    recipient_address="",
                    nonce=record.exchange_id,
                ))
                record.t_epk_sent = transmission.start
                record.t_data_sent = transmission.end
            self.sim.process(one_uplink())
            yield self.sim.timeout(rng.expovariate(1.0 / cfg.exchange_interval))

    def run(self, num_exchanges: int = 100,
            max_duration: Optional[float] = None) -> BaselineReport:
        cfg = self.config
        if max_duration is None:
            expected = (num_exchanges / max(cfg.total_sensors, 1)
                        * cfg.exchange_interval)
            max_duration = max(600.0, expected * 6 + 300.0)

        def budget_check() -> bool:
            return self._exchanges_launched < num_exchanges

        for device_id, radio in self.sensor_radios:
            self.sim.process(self._sensor_loop(device_id, radio, budget_check))

        while self.sim.now < max_duration:
            self.sim.run(until=self.sim.now + 10.0)
            if self._exchanges_launched >= num_exchanges:
                records = self.tracker.records()
                pending = [r for r in records if r.status == "pending"]
                if not pending:
                    break
                if all(self.sim.now - (r.t_request or 0) > 60 for r in pending):
                    for record in pending:
                        record.status = "failed"
                        record.failure_reason = "frame lost"
                    break
        records = self.tracker.records()
        completed = [r for r in records if r.completed]
        return BaselineReport(
            exchanges_launched=self._exchanges_launched,
            completed=len(completed),
            failed=len([r for r in records if r.status == "failed"]),
            duration=self.sim.now,
            latencies=[r.latency for r in completed if r.latency is not None],
        )
