"""What a daemon and the chaos injector count: ``DaemonStats`` and
``ChaosTelemetry``.

Both are plain attribute bags kept by the object that counts —
``stats.jobs_served += 1`` is an int add, nothing more.  Neither knows
the registry.  Each is a :class:`~repro.obs.registry.Counted` whose
``COUNTERS`` / ``GAUGES`` tables are the one place its readings are
named: the registry exports those tables (the daemon and the injector
each register theirs once) and ``stats()`` shows them, so the view and
the export cannot disagree.  What another component already counts — an
engine's script cache, a sync agent's timeouts — is a path in the table,
read from that component, never copied in.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import Counted, Keyed, attrs, read

__all__ = ["ChaosTelemetry", "DaemonStats"]


class DaemonStats(Counted):
    """What one :class:`~repro.core.daemon.BlockchainDaemon` counts.

    Callable — ``daemon.stats()`` — returning the
    :class:`~repro.obs.registry.StatsView` of every ``daemon.*`` reading
    plus ``mean_wait``.  Its series are ``daemon.<field>{host=…}``;
    engine and sync readings go through ``daemon.node`` /
    ``daemon.sync_agent``, and without a ``daemon`` they are 0.
    """

    COUNTERS = {
        **attrs("jobs_served", "blocks_verified", "crashes", "restarts",
                "jobs_lost_to_crash", "messages_refused_offline",
                "max_queue_length"),
        "script_cache_hits": "daemon.node.engine.cache_stats.hits",
        "script_cache_misses": "daemon.node.engine.cache_stats.misses",
        "standardness_rejects": "daemon.node.engine.policy.stats.tx_rejected",
        "script_fast_rejects": "daemon.node.engine.policy.stats.fast_rejects",
        "sync_timeouts": "daemon.sync_agent.timeouts",
        "sync_retries": "daemon.sync_agent.retries",
        "sync_backoff_resets": "daemon.sync_agent.backoff_resets",
    }
    GAUGES = {
        **attrs("busy_time", "stall_time", "queue_wait_total"),
        "mempool_bytes": "daemon.node.mempool.total_bytes",
        "orphan_txs": "daemon.gossip.orphan_count",
    }
    VIEW_ONLY = {"mean_wait": lambda stats: stats.mean_wait()}

    def __init__(self, daemon: Any = None) -> None:
        self.daemon = daemon

    def mean_wait(self) -> float:
        """Mean queue wait; 0.0 on no jobs (``Summary.of([])`` style)."""
        if self.jobs_served == 0:
            return 0.0
        return self.queue_wait_total / self.jobs_served

    __call__ = Counted.stats


class ChaosTelemetry(Counted):
    """Everything the chaos injector did to a run, plus the outcome.

    ``daemons`` is the injector's live host -> daemon map; the sync
    fields are reads of their sync agents, which count each timeout
    once.  ``fault_log`` has a deterministic format: one
    ``t=<sim time> <kind> <detail>`` line per injected fault,
    byte-identical across same-seed runs (tests pin that).
    """

    COUNTERS = {
        **attrs(
            "messages_dropped", "messages_corrupted", "messages_duplicated",
            "messages_delayed", "partition_drops", "partitions_started",
            "partitions_healed", "crashes", "restarts"),
        "sync_timeouts": lambda telemetry: telemetry.sync_total("timeouts"),
        "sync_retries": lambda telemetry: telemetry.sync_total("retries"),
        "backoff_resets":
            lambda telemetry: telemetry.sync_total("backoff_resets"),
        "faults_injected": Keyed("faults_injected", "kind"),
    }
    VIEW_ONLY = attrs("total_faults", "reconvergence_time")

    def __init__(self, daemons: Optional[dict[str, Any]] = None) -> None:
        self.daemons = daemons if daemons is not None else {}
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
