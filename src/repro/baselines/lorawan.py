"""The legacy LoRaWAN baseline (the paper's Fig. 1 architecture).

A centralized deployment: end devices uplink to gateways *of their own
operator*, gateways forward raw frames to the operator's Network Server
over the backhaul, and the Network Server routes to the application
server.  Latency is low — one uplink plus two WAN hops and MIC
processing — but there is no roaming: a foreign operator's gateway
silently drops frames from devices it does not manage, which is exactly
the limitation BcWAN removes.

:class:`LoRaWANBaseline` is a :class:`repro.core.testbed.Testbed` — the
radio cells, WAN model, sensor placement (including the roaming scenario)
and arrival process :class:`repro.core.network.BcWANNetwork` runs on — so
the architectures report comparable numbers for the baseline-comparison
benchmark; this module adds only what happens to a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import NetworkConfig
from repro.core.testbed import Testbed
from repro.lora.device import LoRaRadio
from repro.lora.frames import DataFrame
from repro.p2p.message import Envelope

__all__ = ["LoRaWANBaseline", "UplinkBaseline", "owner_of"]

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


def owner_of(device_id: str) -> int:
    """The actor index in a ``dev-<actor>-<n>`` device id."""
    return int(device_id.split("-")[1])


class UplinkBaseline(Testbed):
    """A testbed whose exchange is one unsolicited data uplink.

    No key request, no ePk: each sensor keys a :class:`DataFrame` and every
    gateway hands what it demodulates to the subclass's ``_at_gateway``.
    """

    def __init__(self, config: Optional[NetworkConfig],
                 hosts: list[str]) -> None:
        """``hosts``: the WAN hosts the architecture adds to the sites."""
        super().__init__(config or NetworkConfig())
        self.wan = self.build_wan(self.config.site_names + hosts)
        channels = []
        for i, name in enumerate(self.config.site_names):
            channel, radio = self.build_cell(i, name)
            # A process: it runs after the sender's own step at the
            # frame's end, so the uplink's instants arrive in order.
            radio.on_receive(
                lambda frame, rssi, index=i:
                self.sim.process(self._at_gateway(index, frame))
            )
            channels.append(channel)
        self.sensors = {radio.name: radio
                        for _owner, radio in self.place_sensors(channels)}

    def start_exchange(self, radio: LoRaRadio) -> None:
        record = self.tracker.new_exchange(radio.name, b"reading")
        self.sim.process(self._uplink(record.exchange_id, radio))

    def _uplink(self, exchange_id: int, radio: LoRaRadio):
        transmission = yield from radio.send(DataFrame(
            sender=radio.name,
            encrypted_message=b"\x00" * 64,
            signature=b"\x00" * 64,
            recipient_address="",
            nonce=exchange_id,
        ))
        # Legacy latency clock: start of the single data uplink.
        self.tracker.reach(exchange_id, "epk_sent", at=transmission.start)
        self.tracker.reach(exchange_id, "data_sent", at=transmission.end)


class LoRaWANBaseline(UplinkBaseline):
    """The centralized architecture under the BcWAN workload.

    Every actor operates its own network: gateway ``i`` belongs to actor
    ``i`` and only forwards frames from actor ``i``'s devices.  With
    ``config.roaming_offset != 0`` the sensors sit in a foreign cell, so
    the hosting gateway drops their frames — the delivery rate collapses,
    which is the comparison's headline row.
    """

    def __init__(self, config: Optional[NetworkConfig] = None) -> None:
        config = config or NetworkConfig()
        super().__init__(config, ["network-server"] + [
            f"app-{i}" for i in range(config.num_gateways)])
        self.wan.register("network-server", self._at_network_server)
        for i, name in enumerate(self.config.site_names):
            self.wan.register(f"app-{i}", self._at_app_server)
            self.wan.register(name, lambda envelope: None)

    def _at_gateway(self, gateway_index: int, frame):
        """A gateway only serves its own operator's devices."""
        if not isinstance(frame, DataFrame):
            return
        if owner_of(frame.sender) != gateway_index:
            # Foreign device: the legacy gateway has no session keys for it
            # and the network server would reject its MIC.  Dropped.
            self.tracker.fail(frame.nonce,
                              "foreign gateway: no roaming agreement")
            return
        self.tracker.reach(frame.nonce, "data_received",
                           gateway=f"gw-{gateway_index}")
        yield self.sim.timeout(_GW_FORWARDING)
        self.wan.send(
            self.config.site_names[gateway_index], "network-server",
            _UplinkReport(frame=frame, gateway=f"gw-{gateway_index}",
                          received_at=self.sim.now),
        )

    def _at_network_server(self, envelope: Envelope) -> None:
        report = envelope.payload
        if not isinstance(report, _UplinkReport):
            return

        def route():
            yield self.sim.timeout(_NS_PROCESSING)
            owner = owner_of(report.frame.sender)
            self.wan.send("network-server", f"app-{owner}", report)
        self.sim.process(route())

    def _at_app_server(self, envelope: Envelope) -> None:
        report = envelope.payload
        if not isinstance(report, _UplinkReport):
            return
        self.tracker.reach(report.frame.nonce, "decrypted")
