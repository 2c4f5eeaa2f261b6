"""The chaos injector: interprets a :class:`FaultPlan` against a run.

One :class:`ChaosInjector` owns a network's interception hook plus the
crash/restart schedule for its managed daemons, and counts everything it
does in one :class:`~repro.obs.telemetry.ChaosTelemetry` — plain fields,
registered once with the scenario's registry, so a
``MetricsRegistry.snapshot()`` reads every injected fault.  Sync
timeouts, retries and backoff resets are the managed daemons' sync
agents' own counters, summed at read time.

Determinism contract
--------------------

Every random draw comes from one stream derived from ``plan.seed`` (via
its own :class:`~repro.sim.rng.RngRegistry`, independent of the
scenario's registry), and draws happen in network send order — which the
simulator already makes deterministic.  Fault-log lines contain only
times, host names and payload type names, so two runs of the same
scenario and plan produce **byte-identical** ``telemetry.fault_log``
contents.  Tests pin exactly that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.chaos.faults import CorruptedPayload, FaultPlan
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import ChaosTelemetry
from repro.p2p.message import Envelope
from repro.p2p.network import FaultDecision, WANetwork
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.core.daemon import BlockchainDaemon

__all__ = ["ChaosInjector"]


class ChaosInjector:
    """Drive a fault plan through a network and a set of daemons."""

    def __init__(self, sim: Simulator, network: WANetwork, plan: FaultPlan,
                 daemons: Optional[dict[str, "BlockchainDaemon"]] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.network = network
        self.plan = plan
        self.daemons: dict[str, "BlockchainDaemon"] = dict(daemons or {})
        self.telemetry = ChaosTelemetry(self.daemons)
        if registry is not None:
            registry.register("chaos", self.telemetry)
        # All chaos randomness hangs off the plan's seed, nothing else.
        self._rng = RngRegistry(plan.seed).stream("chaos-faults")
        self._installed = False
        self._watcher_running = False

    # -- wiring ------------------------------------------------------------------

    def install(self) -> "ChaosInjector":
        """Hook the network and schedule every planned fault.  Idempotent."""
        if self._installed:
            return self
        if self.network.interceptor is not None:
            raise ConfigurationError(
                "network already has an interceptor; one injector per WAN"
            )
        self.network.interceptor = self._intercept
        for partition in self.plan.partitions:
            self.sim.call_at(partition.start,
                             lambda p=partition: self._partition_started(p))
            if partition.heal_at is not None:
                self.sim.call_at(partition.heal_at,
                                 lambda p=partition: self._partition_healed(p))
        for crash in self.plan.crashes:
            self.sim.call_at(crash.at, lambda c=crash: self._crash(c))
            if crash.restart_at is not None:
                self.sim.call_at(crash.restart_at,
                                 lambda c=crash: self._restart(c))
        self._installed = True
        return self

    # -- the interception hook ---------------------------------------------------

    def _intercept(self, envelope: Envelope) -> Optional[FaultDecision]:
        now = self.sim.now
        source, destination = envelope.source, envelope.destination
        payload_kind = type(envelope.payload).__name__
        detail = f"{source}->{destination} {payload_kind}"

        for partition in self.plan.partitions:
            if partition.severs(source, destination, now):
                self.telemetry.partition_drops += 1
                self.telemetry.messages_dropped += 1
                self.telemetry.record_fault("partition-drop", detail, now)
                return FaultDecision(drop=True, reason="partition")

        extra_delay = 0.0
        duplicates = 0
        replace_payload = None
        delayed = False
        for fault in self.plan.link_faults:
            if not fault.matches(source, destination, payload_kind, now):
                continue
            # One draw per *matching* fault, in plan order: the draw
            # sequence is a pure function of the message sequence.
            if self._rng.random() >= fault.probability:
                continue
            if fault.kind == "loss":
                self.telemetry.messages_dropped += 1
                self.telemetry.record_fault("link-loss", detail, now)
                return FaultDecision(drop=True, reason="link-loss")
            if fault.kind == "corrupt":
                replace_payload = CorruptedPayload(original_kind=payload_kind)
                self.telemetry.messages_corrupted += 1
                self.telemetry.record_fault("link-corrupt", detail, now)
            elif fault.kind == "duplicate":
                duplicates += fault.copies
                self.telemetry.messages_duplicated += fault.copies
                self.telemetry.record_fault("link-duplicate", detail, now)
            elif fault.kind == "delay":
                extra_delay += fault.extra_delay
                delayed = True
                self.telemetry.record_fault("link-delay", detail, now)
            elif fault.kind == "reorder":
                extra_delay += self._rng.random() * fault.extra_delay
                delayed = True
                self.telemetry.record_fault("link-reorder", detail, now)

        if delayed:
            self.telemetry.messages_delayed += 1
        if extra_delay == 0.0 and duplicates == 0 and replace_payload is None:
            return None
        return FaultDecision(extra_delay=extra_delay, duplicates=duplicates,
                             replace_payload=replace_payload,
                             reason="chaos")

    # -- scheduled faults --------------------------------------------------------

    def _partition_started(self, partition) -> None:
        self.telemetry.partitions_started += 1
        groups = "|".join(",".join(group) for group in partition.groups)
        self.telemetry.record_fault("partition-start", groups, self.sim.now)

    def _partition_healed(self, partition) -> None:
        self.telemetry.partitions_healed += 1
        groups = "|".join(",".join(group) for group in partition.groups)
        self.telemetry.record_fault("partition-heal", groups, self.sim.now)

    def _crash(self, crash) -> None:
        daemon = self.daemons.get(crash.host)
        if daemon is None or not daemon.online:
            return
        daemon.crash(preserve_chain=crash.preserve_chain)
        self.telemetry.crashes += 1
        mode = "preserve-chain" if crash.preserve_chain else "state-loss"
        self.telemetry.record_fault("crash", f"{crash.host} {mode}",
                                    self.sim.now)

    def _restart(self, crash) -> None:
        daemon = self.daemons.get(crash.host)
        if daemon is None or daemon.online:
            return
        daemon.restart()
        self.telemetry.restarts += 1
        self.telemetry.record_fault(
            "restart", f"{crash.host} height={daemon.node.height}",
            self.sim.now)

    # -- reconvergence -----------------------------------------------------------

    # Seconds between convergence checks once the plan's horizon passed.
    RECONVERGENCE_POLL = 1.0

    def watch_reconvergence(self) -> None:
        """Record how long past the plan's horizon the mesh takes to agree.

        Starts a process that, from the last scheduled fault onward, polls
        the managed daemons until every one is online with the same tip,
        then stamps ``telemetry.reconvergence_time`` (seconds after the
        horizon; 0.0 if already converged at the horizon).
        """
        if self._watcher_running:
            return
        self._watcher_running = True
        self.sim.process(self._watch())

    def _watch(self):
        horizon = self.plan.horizon()
        if self.sim.now < horizon:
            yield self.sim.timeout(horizon - self.sim.now)
        while self.telemetry.reconvergence_time is None:
            if self._converged():
                self.telemetry.reconvergence_time = self.sim.now - horizon
                return
            yield self.sim.timeout(self.RECONVERGENCE_POLL)

    def _converged(self) -> bool:
        daemons = list(self.daemons.values())
        if not daemons:
            return False
        if any(not daemon.online for daemon in daemons):
            return False
        tips = {daemon.node.chain.tip.hash for daemon in daemons}
        return len(tips) == 1
