"""What a run reports — one outcome core for every architecture.

:class:`ExchangeReport` is what any :class:`~repro.core.testbed.Testbed`
returns from ``run()``: how many exchanges were launched, how they ended
and the latency distribution of the ones that completed.  The baselines
return it as is; :class:`RunReport` extends it with what only a BcWAN
deployment has (chain height, rewards, daemon stats, per-leg spans), and
:class:`DeploymentReporter` is the part of
:class:`~repro.core.network.BcWANNetwork` that builds one and exports the
run's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.exchange import ExchangeTracker
from repro.obs.export import (export_trace_jsonl, format_breakdown,
                              leg_breakdown)
from repro.obs.stats import Summary
from repro.obs.telemetry import DaemonStats

__all__ = ["DeploymentReporter", "ExchangeReport", "RunReport"]

# WAN payload types that carry blocks.
_BLOCK_MESSAGES = ("BlockMessage", "BlocksMessage", "CompactBlockMessage",
                   "GetBlockTxnMessage", "BlockTxnMessage")


@dataclass
class ExchangeReport:
    """Exchange outcomes of one workload run, on any architecture."""

    exchanges_launched: int
    completed: int
    failed: int
    duration: float
    latencies: list[float]

    @classmethod
    def of(cls, tracker: ExchangeTracker, launched: int, now: float,
           **extra) -> "ExchangeReport":
        return cls(exchanges_launched=launched,
                   completed=len(tracker.completed()),
                   failed=len(tracker.failed()), duration=now,
                   latencies=tracker.latencies(), **extra)

    @property
    def mean_latency(self) -> float:
        # NaN-free on empty, matching the Summary.of([]) convention.
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def summary(self) -> Summary:
        return Summary.of(self.latencies)

    @property
    def delivery_rate(self) -> float:
        if not self.exchanges_launched:
            return 0.0
        return self.completed / self.exchanges_launched


@dataclass
class RunReport(ExchangeReport):
    """Results of one BcWAN workload run."""

    pending: int
    chain_height: int
    gateway_rewards: dict[str, int]
    recipient_spend: dict[str, int]
    daemon_stats: dict[str, DaemonStats]
    frames_lost_collision: int
    frames_lost_sensitivity: int
    # Per-leg latency summaries derived from spans (uplink / publication
    # / payment / decryption / total); empty when tracing was off.
    legs: dict[str, Summary] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"exchanges: {self.exchanges_launched} launched, "
            f"{self.completed} completed, {self.failed} failed, "
            f"{self.pending} pending",
            f"simulated duration: {self.duration:.1f} s, "
            f"chain height: {self.chain_height}",
        ]
        if self.latencies:
            lines.append(f"latency: {self.summary.format()}")
        if self.legs and self.legs.get("total") and self.legs["total"].count:
            lines.append("per-leg breakdown (from spans):")
            for leg in ("uplink", "publication", "payment", "decryption",
                        "total"):
                summary = self.legs[leg]
                lines.append(f"  {leg:<12} {summary.format()}")
        return "\n".join(lines)


class DeploymentReporter:
    """``report()`` and the trace exports of a BcWAN deployment.

    Mixed into :class:`~repro.core.network.BcWANNetwork`, whose
    ``tracker`` / ``sites`` / ``wan`` / ``registry`` / ``tracer`` /
    ``verdict_memo`` / master daemons it reads.
    """

    def _register_metrics(self) -> None:
        """The deployment-wide series, read at snapshot time: the WAN
        economy, the shared verdict memo (``misses`` is how many
        verifications this deployment's host executed) and the event
        queue.  Daemons, checkpoint agents and injectors register their
        own.

        Two counters stay out of the deterministic export on purpose:
        ``ecdsa.cache_stats()`` is process-global, so two same-seed
        deployments in one process would export different numbers; and
        a channel's ``loss_rows_built`` / ``loss_row_hits`` describe the
        row cache, which the oracle channel that whole exports are
        compared against (``tests/lora/test_channel_differential.py``)
        does not have."""
        registry = self.registry
        registry.register("wan", self, gauges={
            "bytes_per_exchange": DeploymentReporter._bytes_per_exchange,
            "bytes_per_block": DeploymentReporter._bytes_per_block,
        })
        registry.register("crypto.verdict_memo", self.verdict_memo)
        registry.register("sim", self.sim,
                          gauges={"queue_length": lambda sim: len(sim._queue)})

    def _chain_height(self) -> int:
        # Flat: the single chain's height.  Hierarchical: the settlement
        # chain's height — per-region heights live on region.master_node.
        return (self.anchor_daemon or self.master_daemon).node.height

    def _bytes_per_exchange(self) -> Optional[float]:
        completed = len(self.tracker.completed())
        return self.wan.bytes_modeled / completed if completed else None

    def _bytes_per_block(self) -> Optional[float]:
        height = self._chain_height()
        if not height:
            return None
        return sum(self.wan.bytes_by_type.get(name, 0)
                   for name in _BLOCK_MESSAGES) / height

    def report(self) -> RunReport:
        return RunReport.of(
            self.tracker, self.exchanges_launched, self.sim.now,
            pending=len(self.tracker.pending()),
            chain_height=self._chain_height(),
            gateway_rewards={
                site.name: site.gateway.rewards_claimed for site in self.sites
            },
            recipient_spend={
                site.recipient.name:
                    site.recipient.payments_made * self.config.price
                for site in self.sites
            },
            daemon_stats={
                name: daemon.stats
                for name, daemon in self.all_daemons().items()
            },
            frames_lost_collision=sum(
                site.channel.frames_lost_collision for site in self.sites
            ),
            frames_lost_sensitivity=sum(
                site.channel.frames_lost_sensitivity for site in self.sites
            ),
            legs=leg_breakdown(self.tracer) if self.tracer.enabled else {},
        )

    def export_trace(self) -> str:
        """The run's deterministic JSONL trace and metrics export."""
        return export_trace_jsonl(self.tracer, self.registry)

    def format_breakdown(self) -> str:
        """Human-readable Fig. 5/6-style per-leg latency table."""
        return format_breakdown(self.tracer)
