"""Every component's ``stats()`` is the view of its one table.

On a traced light + compact + multicast deployment and on a chaos
federation, every component the registry reads (registered by the
deployment, by each daemon and by the chaos injector), and every gossip
node, sync agent, recipient and ledger access, has a ``stats()`` that:

* returns a :class:`~repro.obs.registry.StatsView`;
* has exactly the keys pinned below;
* holds, in its owner's ``COUNTERS`` / ``GAUGES`` table, each field the
  registry exports for that owner.

Apart from the rows marked as new, the literals are the keys these
``stats()`` calls returned before the components shared one table.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.obs.registry import Counted, StatsView

DAEMON = (
    "blocks_verified", "busy_time", "crashes", "jobs_lost_to_crash",
    "jobs_served", "max_queue_length", "mean_wait", "mempool_bytes",
    "messages_refused_offline", "orphan_txs", "queue_wait_total",
    "restarts", "script_cache_hits", "script_cache_misses",
    "script_fast_rejects", "stall_time", "standardness_rejects",
    "sync_backoff_resets", "sync_retries", "sync_timeouts")
GOSSIP = ("orphans_evicted", "orphans_pooled", "orphans_resolved", "peers")
SYNC = ("backoff_resets", "batches_received", "blocks_recovered",
        "catchup_sessions", "headers_received", "retries", "rounds",
        "skipped_rounds", "timeouts", "txs_recovered")
RECIPIENT = ("balance", "claims_relayed", "messages_decrypted",
             "messages_received", "payments_made", "pending_settlements",
             "quotes_refused", "refunds_taken")
SPV_LEDGER = ("balance", "funding_stalls", "payments_confirmed",
              "rebroadcasts")
# New: the verdict memo had no stats() before; its registered series.
MEMO = tuple(f"{field}.{kind}" for field in ("evictions", "hits", "misses")
             for kind in ("ecdsa", "script")) + ("entries",)

PINNED = {
    "light": {
        "DaemonStats": DAEMON,
        "GossipNode": GOSSIP,
        "SyncAgent": SYNC,
        "CompactBlockRelay": (
            "compact_announced", "compact_received", "fallback_roundtrips",
            "reconstruct_failed", "reconstructed_after_fallback",
            "reconstructed_from_mempool", "txs_fetched", "txs_from_mempool"),
        "LightServer": ("clients", "filters_registered", "header_requests",
                        "matches_pushed", "proofs_served"),
        "SpvClient": (
            "catchups", "failovers", "headers_from_multicast",
            "headers_synced", "matches_received", "proofs_rejected",
            "proofs_verified", "rounds_skipped", "sync_rounds",
            "sync_timeouts", "tip_height"),
        "MulticastListener": (
            "bundles_accepted", "bundles_discarded", "bundles_invalid",
            "bundles_late", "bundles_received", "dishonest_bundles",
            "headers_applied", "omissions_suspected", "rounds_missed",
            "signatures_skipped", "signatures_verified"),
        "RecipientAgent": tuple({*RECIPIENT, *SPV_LEDGER}),
        "SpvLedger": SPV_LEDGER,
        # New: no stats() before; the registered series of its table.
        "ChainMulticaster": ("rounds_delayed", "rounds_sent"),
        "VerdictMemo": MEMO,
    },
    "chaos": {
        "DaemonStats": DAEMON,
        "GossipNode": GOSSIP,
        "SyncAgent": SYNC,
        "RecipientAgent": RECIPIENT,
        "NodeLedger": ("balance",),
        "ChaosTelemetry": (
            "backoff_resets", "crashes", "faults_injected.crash",
            "faults_injected.link-loss", "messages_corrupted",
            "messages_delayed", "messages_dropped", "messages_duplicated",
            "partition_drops", "partitions_healed", "partitions_started",
            "restarts", "sync_retries", "sync_timeouts", "total_faults"),
        # New: no stats() before; the registered series of its table.
        "CheckpointAgent": ("checkpoints_committed", "subchain_height"),
        "VerdictMemo": MEMO,
    },
}


def _light():
    network = BcWANNetwork(NetworkConfig(
        num_gateways=2, sensors_per_gateway=2, exchange_interval=30.0,
        seed=11, tracing=True, sync_interval=10.0,
        light=LightConfig(device_class="light", compact_blocks=True,
                          multicast_interval=15.0, light_sync_interval=30.0)))
    network.run(num_exchanges=6)
    return network


def _chaos():
    network = BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=1, seed=11,
        exchange_interval=20.0, sync_interval=10.0,
        topology=RegionTopology(regions=2, checkpoint_interval=20.0)))
    plan = (FaultPlan(seed=11).lose_links(0.05)
            .crash("site-1", at=20.0, restart_at=45.0))
    ChaosInjector(network.sim, network.wan, plan,
                  daemons=network.all_daemons(),
                  registry=network.registry).install()
    network.run(num_exchanges=4)
    return network


def _registered(network) -> dict[int, tuple[object, set[str]]]:
    """id(owner) -> (owner, the fields the registry exports for it)."""
    owners: dict[int, tuple[object, set[str]]] = {}
    for name, family in network.registry._families.items():
        field = name.rsplit(".", 1)[1]
        for owner, _source in family.sources.values():
            owners.setdefault(id(owner), (owner, set()))[1].add(field)
    return owners


def _components(network) -> list[object]:
    """Every owner the registry reads, plus the unregistered counters."""
    found = [owner for owner, _fields in _registered(network).values()]
    for daemon in network.all_daemons().values():
        found += [daemon.gossip, daemon.sync_agent]
    for site in network.sites:
        found += [site.recipient, site.recipient.ledger]
    return found


@pytest.mark.parametrize("scenario", ["light", "chaos"])
def test_stats_parity(scenario):
    network = {"light": _light, "chaos": _chaos}[scenario]()
    pinned = PINNED[scenario]
    seen: set[str] = set()
    for component in _components(network):
        kind = type(component).__name__
        if kind in ("BcWANNetwork", "Simulator"):
            continue  # the deployment-wide series; no component view
        assert isinstance(component, Counted), kind
        view = component.stats()
        assert isinstance(view, StatsView), kind
        assert list(view) == sorted(pinned[kind]), kind
        seen.add(kind)
    assert seen == set(pinned)
    for owner, fields in _registered(network).values():
        if isinstance(owner, Counted):
            tables = {**owner.COUNTERS, **owner.GAUGES}
            assert fields <= set(tables), type(owner).__name__
