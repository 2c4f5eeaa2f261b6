"""The legacy LoRaWAN baseline (the paper's Fig. 1 architecture).

A centralized deployment: end devices uplink to gateways *of their own
operator*, gateways forward raw frames to the operator's Network Server
over the backhaul, and the Network Server routes to the application
server.  Latency is low — one uplink plus two WAN hops and MIC
processing — but there is no roaming: a foreign operator's gateway
silently drops frames from devices it does not manage, which is exactly
the limitation BcWAN removes.

:class:`LoRaWANBaseline` runs the same workload as
:class:`repro.core.network.BcWANNetwork` (same radio model, same WAN
model, same sensor placement including the roaming scenario) so the two
report comparable numbers for the baseline-comparison benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import CELL_RADIUS, NetworkConfig
from repro.obs.exchange import ExchangeTracker
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
from repro.obs.stats import Summary

__all__ = ["LoRaWANBaseline", "BaselineReport"]

# Modeled Network Server processing: deduplication, MIC check, routing.
_NS_PROCESSING = 0.020
# Gateway packet-forwarder handling per frame.
_GW_FORWARDING = 0.004


@dataclass(frozen=True)
class _UplinkReport:
    """Gateway → network server frame forward."""

    frame: DataFrame
    gateway: str
    received_at: float


@dataclass
class BaselineReport:
    """Results comparable with :class:`repro.core.network.RunReport`."""

    exchanges_launched: int
    completed: int
    failed: int
    duration: float
    latencies: list[float]

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            raise ValueError("no completed exchanges")
        return sum(self.latencies) / len(self.latencies)

    @property
    def summary(self) -> Summary:
        return Summary.of(self.latencies)

    @property
    def delivery_rate(self) -> float:
        if not self.exchanges_launched:
            return 0.0
        return self.completed / self.exchanges_launched


class LoRaWANBaseline:
    """The centralized architecture under the BcWAN workload.

    Every actor operates its own network: gateway ``i`` belongs to actor
    ``i`` and only forwards frames from actor ``i``'s devices.  With
    ``config.roaming_offset != 0`` the sensors sit in a foreign cell, so
    the hosting gateway drops their frames — the delivery rate collapses,
    which is the comparison's headline row.
    """

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        self.config = config or NetworkConfig()
        cfg = self.config
        self.rngs = RngRegistry(cfg.seed)
        self.sim = Simulator()
        self.tracker = ExchangeTracker()
        self._exchanges_launched = 0

        hosts = (cfg.site_names + ["network-server"]
                 + [f"app-{i}" for i in range(cfg.num_gateways)])
        latency = PlanetLabLatencyMatrix(
            hosts, seed=cfg.seed ^ 0x5EED,
            median_range=cfg.wan_median_range,
        )
        self.wan = WANetwork(self.sim, self.rngs.stream("wan"), latency)
        self.wan.register("network-server", self._at_network_server)
        for i in range(cfg.num_gateways):
            self.wan.register(f"app-{i}", self._at_app_server)

        modulation = LoRaModulation(spreading_factor=cfg.spreading_factor)
        self.channels: list[RadioChannel] = []
        self.gateway_radios: list[LoRaRadio] = []
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
            self.wan.register(name, lambda envelope: None)
            self.channels.append(channel)
            self.gateway_radios.append(radio)

        self._deploy_sensors(modulation)

    # -- deployment -----------------------------------------------------------

    def _deploy_sensors(self, modulation: LoRaModulation) -> None:
        cfg = self.config
        placement = self.rngs.stream("placement")
        self.sensor_radios: list[tuple[str, int, LoRaRadio]] = []
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
                self.sensor_radios.append((device_id, i, radio))

    @staticmethod
    def _owner_of(device_id: str) -> int:
        return int(device_id.split("-")[1])

    # -- protocol -----------------------------------------------------------------

    def _at_gateway(self, gateway_index: int, frame) -> None:
        """A gateway only serves its own operator's devices."""
        if not isinstance(frame, DataFrame):
            return
        if self._owner_of(frame.sender) != gateway_index:
            # Foreign device: the legacy gateway has no session keys for it
            # and the network server would reject its MIC.  Dropped.
            record = self.tracker.get(frame.nonce)
            if record is not None and record.status == "pending":
                record.status = "failed"
                record.failure_reason = "foreign gateway: no roaming agreement"
            return
        record = self.tracker.get(frame.nonce)
        if record is not None:
            record.t_data_received = self.sim.now
            record.gateway = f"gw-{gateway_index}"

        def forward():
            yield self.sim.timeout(_GW_FORWARDING)
            self.wan.send(
                self.config.site_names[gateway_index], "network-server",
                _UplinkReport(frame=frame, gateway=f"gw-{gateway_index}",
                              received_at=self.sim.now),
            )
        self.sim.process(forward())

    def _at_network_server(self, envelope: Envelope) -> None:
        report = envelope.payload
        if not isinstance(report, _UplinkReport):
            return

        def route():
            yield self.sim.timeout(_NS_PROCESSING)
            owner = self._owner_of(report.frame.sender)
            self.wan.send("network-server", f"app-{owner}", report)
        self.sim.process(route())

    def _at_app_server(self, envelope: Envelope) -> None:
        report = envelope.payload
        if not isinstance(report, _UplinkReport):
            return
        record = self.tracker.get(report.frame.nonce)
        if record is not None:
            record.t_decrypted = self.sim.now
            record.status = "completed"

    # -- workload -------------------------------------------------------------------

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
                # Legacy latency clock: start of the single data uplink.
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

        for device_id, _owner, radio in self.sensor_radios:
            self.sim.process(self._sensor_loop(device_id, radio, budget_check))

        while self.sim.now < max_duration:
            self.sim.run(until=self.sim.now + 10.0)
            if self._exchanges_launched >= num_exchanges:
                records = self.tracker.records()
                pending = [r for r in records if r.status == "pending"]
                if not pending:
                    break
                # Frames drop silently in ALOHA radio; expire stragglers.
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
