"""What a daemon and the chaos injector count: ``DaemonStats`` and
``ChaosTelemetry``.

Both are plain attribute bags kept by the object that counts —
``stats.jobs_served += 1`` is an int add, nothing more.  Neither knows
the registry: a :class:`~repro.obs.registry.MetricsRegistry` reads
their fields at snapshot time (the daemon and the injector each register
theirs once), and what another component already counts — an engine's
script cache, a sync agent's timeouts — is read from that component,
never copied in.  Calling a bag (``daemon.stats()``) returns a
:class:`~repro.obs.registry.StatsView` of the same readings the export
carries.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import StatsView, read

__all__ = ["CHAOS_COUNTERS", "ChaosTelemetry", "DAEMON_COUNTERS",
           "DAEMON_GAUGES", "DaemonStats"]

# A daemon's series, ``daemon.<field>{host=…}``, as paths from its
# DaemonStats.  Engine and sync readings go through ``daemon.node`` /
# ``daemon.sync_agent``.
DAEMON_COUNTERS = {
    "jobs_served": "jobs_served",
    "blocks_verified": "blocks_verified",
    "script_cache_hits": "daemon.node.engine.cache_stats.hits",
    "script_cache_misses": "daemon.node.engine.cache_stats.misses",
    "standardness_rejects": "daemon.node.engine.policy.stats.tx_rejected",
    "script_fast_rejects": "daemon.node.engine.policy.stats.fast_rejects",
    "crashes": "crashes",
    "restarts": "restarts",
    "jobs_lost_to_crash": "jobs_lost_to_crash",
    "messages_refused_offline": "messages_refused_offline",
    "sync_timeouts": "daemon.sync_agent.timeouts",
    "sync_retries": "daemon.sync_agent.retries",
    "sync_backoff_resets": "daemon.sync_agent.backoff_resets",
    "max_queue_length": "max_queue_length",
}
DAEMON_GAUGES = {
    "busy_time": "busy_time",
    "stall_time": "stall_time",
    "queue_wait_total": "queue_wait_total",
    "mempool_bytes": "daemon.node.mempool.total_bytes",
    "orphan_txs": "daemon.gossip.orphan_count",
}


class DaemonStats:
    """What one :class:`~repro.core.daemon.BlockchainDaemon` counts.

    Callable — ``daemon.stats()`` — returning a :class:`StatsView` of
    every ``daemon.*`` reading, the uniform accessor shared with sync,
    gossip and chaos.  Without a ``daemon`` the engine and sync readings
    are 0.
    """

    def __init__(self, daemon: Any = None) -> None:
        self.daemon = daemon
        self.jobs_served = 0
        self.blocks_verified = 0
        self.crashes = 0
        self.restarts = 0
        self.jobs_lost_to_crash = 0
        self.messages_refused_offline = 0
        self.max_queue_length = 0
        self.busy_time = 0.0
        self.stall_time = 0.0
        self.queue_wait_total = 0.0

    def mean_wait(self) -> float:
        """Mean queue wait; 0.0 on no jobs (``Summary.of([])`` style)."""
        if self.jobs_served == 0:
            return 0.0
        return self.queue_wait_total / self.jobs_served

    def __call__(self) -> StatsView:
        values = {field: read(self, source) for field, source
                  in {**DAEMON_COUNTERS, **DAEMON_GAUGES}.items()}
        values["mean_wait"] = self.mean_wait()
        return StatsView(values)


# The injector's series, ``chaos.<field>``.  The sync fields are reads of
# the managed daemons' sync agents, which count each timeout once.
CHAOS_COUNTERS: dict[str, Any] = {
    field: field for field in (
        "messages_dropped", "messages_corrupted", "messages_duplicated",
        "messages_delayed", "partition_drops", "partitions_started",
        "partitions_healed", "crashes", "restarts")}
CHAOS_COUNTERS.update(
    sync_timeouts=lambda telemetry: telemetry.sync_total("timeouts"),
    sync_retries=lambda telemetry: telemetry.sync_total("retries"),
    backoff_resets=lambda telemetry: telemetry.sync_total("backoff_resets"),
)


class ChaosTelemetry:
    """Everything the chaos injector did to a run, plus the outcome.

    ``daemons`` is the injector's live host -> daemon map.
    ``fault_log`` has a deterministic format: one
    ``t=<sim time> <kind> <detail>`` line per injected fault,
    byte-identical across same-seed runs (tests pin that).
    """

    def __init__(self, daemons: Optional[dict[str, Any]] = None) -> None:
        self.daemons = daemons if daemons is not None else {}
        self.messages_dropped = 0
        self.messages_corrupted = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.partition_drops = 0
        self.partitions_started = 0
        self.partitions_healed = 0
        self.crashes = 0
        self.restarts = 0
        # Per-kind injected fault counts.
        self.faults_injected: dict[str, int] = {}
        self.fault_log: list[str] = []
        self.reconvergence_time: Optional[float] = None

    def record_fault(self, kind: str, detail: str, now: float) -> None:
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1
        self.fault_log.append(f"t={now:.6f} {kind} {detail}")

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def sync_total(self, field: str) -> int:
        """``field`` summed over the managed daemons' sync agents."""
        return sum(read(daemon, f"sync_agent.{field}")
                   for daemon in self.daemons.values())

    def __call__(self) -> StatsView:
        values: dict[str, object] = {
            field: read(self, source)
            for field, source in CHAOS_COUNTERS.items()}
        values["total_faults"] = self.total_faults
        for kind, count in self.faults_injected.items():
            values[f"faults_injected.{kind}"] = count
        if self.reconvergence_time is not None:
            values["reconvergence_time"] = self.reconvergence_time
        return StatsView(values)

    stats = __call__
