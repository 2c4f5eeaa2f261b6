"""The §5.2 testbed, held fixed across the architectures run on it.

The paper evaluates one workload — gateway cells whose sensors belong to
a *foreign* actor, SF7, 1 % duty cycle, Poisson uplinks — and argues
BcWAN against two other architectures on it.  :class:`Testbed` is that
workload and nothing else: the seeded streams, the PlanetLab-like WAN,
one radio cell per site, every sensor's position, the arrival process
and the run-until-settled loop.  :class:`~repro.core.network.BcWANNetwork`
and both :mod:`repro.baselines` subclass it and add only their protocol,
so the three share radio cells, placement and launch times by
construction.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.core.config import CELL_RADIUS, NetworkConfig
from repro.core.report import ExchangeReport
from repro.lora.channel import Position, RadioChannel
from repro.lora.device import (EU868_DOWNLINK_CHANNEL,
                               EU868_DOWNLINK_DUTY_CYCLE, LoRaRadio)
from repro.lora.phy import LoRaModulation
from repro.obs.exchange import ExchangeTracker
from repro.obs.tracing import Tracer
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import PlanetLabLatencyMatrix
from repro.sim.rng import RngRegistry

__all__ = ["Testbed"]


class Testbed:
    """One seeded deployment of the §5.2 workload.

    A subclass builds its architecture in ``__init__`` (WAN hosts, one
    :meth:`build_cell` per site, :meth:`place_sensors`), fills
    :attr:`sensors` and implements :meth:`start_exchange`.
    """

    # run(): how often the settle condition is checked, and how long
    # nothing may settle before the stragglers are given up (sim seconds).
    check_interval = 10.0
    settle_grace = 60.0

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.rngs = RngRegistry(self.config.seed)
        self.sim = Simulator()
        # Trace/span ids are minted in span-creation order, so same-seed
        # runs export byte-identical JSONL.
        self.tracer = Tracer(self.sim, enabled=self.config.tracing)
        self.tracker = ExchangeTracker(self.tracer)
        self.modulation = LoRaModulation(
            spreading_factor=self.config.spreading_factor)
        # device id -> what start_exchange() drives, in placement order
        self.sensors: dict[str, Any] = {}
        self.exchanges_launched = 0

    # -- construction -----------------------------------------------------------

    def build_wan(self, hosts: list[str]) -> WANetwork:
        """``hosts`` on one PlanetLab-like latency matrix."""
        cfg = self.config
        latency = PlanetLabLatencyMatrix(
            hosts, seed=cfg.seed ^ 0x5EED,
            median_range=cfg.wan_median_range,
        )
        wan = WANetwork(self.sim, self.rngs.stream("wan"), latency,
                        loss_rate=cfg.wan_loss_rate)
        wan.tracer = self.tracer
        return wan

    def build_cell(self, index: int,
                   site_name: str) -> tuple[RadioChannel, LoRaRadio]:
        """One site's radio channel and its 27 dBm gateway radio."""
        channel = RadioChannel(self.sim,
                               self.rngs.stream(f"radio-{site_name}"))
        gateway_radio = LoRaRadio(
            f"gw-{index}", channel, position=Position(0.0, 0.0),
            modulation=self.modulation, duty_cycle=EU868_DOWNLINK_DUTY_CYCLE,
            frequencies=(EU868_DOWNLINK_CHANNEL,), power_dbm=27.0,
        )
        return channel, gateway_radio

    def place_sensors(self, channels: list[RadioChannel]
                      ) -> list[tuple[int, LoRaRadio]]:
        """Every end device's radio, as ``(owning actor, radio)``.

        Actor ``i``'s sensors sit uniformly in the cell ``channels[k]`` of
        the site they roam to (``config.recipient_site``: the
        ``(i + offset) % n`` rotation, wrapped inside the home region when
        the topology says so).
        """
        cfg = self.config
        placement = self.rngs.stream("placement")
        radios = []
        for i in range(cfg.num_gateways):
            channel = channels[cfg.recipient_site(i)]
            for j in range(cfg.sensors_per_gateway):
                angle = placement.uniform(0, 2 * math.pi)
                radius = CELL_RADIUS * math.sqrt(placement.random())
                radios.append((i, LoRaRadio(
                    f"dev-{i}-{j}", channel,
                    position=Position(radius * math.cos(angle),
                                      radius * math.sin(angle)),
                    modulation=self.modulation,
                )))
        return radios

    # -- workload ---------------------------------------------------------------

    def start_exchange(self, device: Any) -> None:
        """Launch exchange number ``self.exchanges_launched`` from
        ``device`` (one of :attr:`sensors`' values)."""
        raise NotImplementedError

    def _arrivals(self, device_id: str, device: Any, budget: int):
        """One sensor's Poisson uplinks, until the shared budget is spent."""
        rng = self.rngs.stream(f"workload-{device_id}")
        interval = self.config.exchange_interval
        yield self.sim.timeout(rng.uniform(0, interval))
        while self.exchanges_launched < budget:
            self.exchanges_launched += 1
            self.start_exchange(device)
            yield self.sim.timeout(rng.expovariate(1.0 / interval))

    def run(self, num_exchanges: int = 100,
            max_duration: Optional[float] = None) -> ExchangeReport:
        """Drive the workload until ``num_exchanges`` exchanges settle.

        ``max_duration`` (simulated seconds) caps runaway runs; it defaults
        to a generous multiple of the expected workload duration.
        """
        cfg = self.config
        if max_duration is None:
            expected = (num_exchanges / max(cfg.total_sensors, 1)
                        * cfg.exchange_interval)
            max_duration = max(600.0, expected * 6 + 300.0)

        for device_id, device in self.sensors.items():
            self.sim.process(self._arrivals(device_id, device, num_exchanges))

        last_progress_time = 0.0
        last_terminal = -1
        while self.sim.now < max_duration:
            self.sim.run(until=self.sim.now + self.check_interval)
            pending = self.tracker.pending()
            terminal = len(self.tracker.records()) - len(pending)
            if terminal != last_terminal:
                last_terminal = terminal
                last_progress_time = self.sim.now
            if self.exchanges_launched >= num_exchanges:
                # Covers num_exchanges=0 (a sweep's empty cell): no records
                # means nothing to settle, terminate on the first check.
                if not pending:
                    break
                # Lost radio frames leave exchanges dangling (no link-layer
                # ack for the data uplink); give up on them once nothing
                # has settled for a grace period.
                if self.sim.now - last_progress_time > self.settle_grace:
                    for record in pending:
                        self.tracker.fail(
                            record.exchange_id,
                            "unresolved at run end (frame lost?)")
                    break
        return self.report()

    def report(self) -> ExchangeReport:
        return ExchangeReport.of(self.tracker, self.exchanges_launched,
                                 self.sim.now)
