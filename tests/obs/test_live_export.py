"""The export is a view of live state: every series equals its owner.

A 2-region deployment on a lossy WAN with anti-entropy sync, a gateway
crash-and-restart and a settlement-node crash-and-restart: after the
run, each series of ``registry.snapshot()`` is compared with the value
read straight off the object that counts it — daemon attributes, engine
cache and policy stats, sync agents, the chaos telemetry, checkpoint
agents, the shared verdict memo, the WAN and the event queue.  A second
2-region run with light recipients, compact relay and multicast adds the
light tier's counters.  The expectation is spelled out here,
independently of the registrations.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology
from repro.core.config import LightConfig
from repro.core.report import _BLOCK_MESSAGES


@pytest.fixture(scope="module")
def run():
    network = BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=2, seed=11,
        exchange_interval=20.0, sync_interval=10.0,
        topology=RegionTopology(regions=2, checkpoint_interval=20.0)))
    plan = (FaultPlan(seed=11).lose_links(0.05)
            .crash("site-1", at=20.0, restart_at=45.0)
            .crash("anchor-r0", at=25.0, restart_at=50.0,
                   preserve_chain=True))
    injector = ChaosInjector(network.sim, network.wan, plan,
                             daemons=network.all_daemons(),
                             registry=network.registry).install()
    assembled = [region.master_daemon.node.height
                 for region in network.regions]
    report = network.run(num_exchanges=8)
    return network, injector, report, assembled


def owners_view(network, injector, report):
    counters: dict[str, object] = {}
    gauges: dict[str, object] = {}
    for host, daemon in network.all_daemons().items():
        stats, engine, agent = daemon.stats, daemon.node.engine, \
            daemon.sync_agent
        for field, value in {
            "jobs_served": stats.jobs_served,
            "blocks_verified": stats.blocks_verified,
            "script_cache_hits": engine.cache_stats.hits,
            "script_cache_misses": engine.cache_stats.misses,
            "standardness_rejects": engine.policy.stats.tx_rejected,
            "script_fast_rejects": engine.policy.stats.fast_rejects,
            "crashes": stats.crashes,
            "restarts": stats.restarts,
            "jobs_lost_to_crash": stats.jobs_lost_to_crash,
            "messages_refused_offline": stats.messages_refused_offline,
            "sync_timeouts": agent.timeouts,
            "sync_retries": agent.retries,
            "sync_backoff_resets": agent.backoff_resets,
            "max_queue_length": stats.max_queue_length,
        }.items():
            counters[f"daemon.{field}{{host={host}}}"] = value
        for field, value in {
            "busy_time": stats.busy_time,
            "stall_time": stats.stall_time,
            "queue_wait_total": stats.queue_wait_total,
            "mempool_bytes": daemon.node.mempool.total_bytes,
            "orphan_txs": daemon.gossip.orphan_count,
        }.items():
            gauges[f"daemon.{field}{{host={host}}}"] = value

    if injector is not None:
        telemetry = injector.telemetry
        agents = [daemon.sync_agent for daemon in injector.daemons.values()]
        for field in ("messages_dropped", "messages_corrupted",
                      "messages_duplicated", "messages_delayed",
                      "partition_drops", "partitions_started",
                      "partitions_healed", "crashes", "restarts"):
            counters[f"chaos.{field}"] = getattr(telemetry, field)
        counters["chaos.sync_timeouts"] = sum(a.timeouts for a in agents)
        counters["chaos.sync_retries"] = sum(a.retries for a in agents)
        counters["chaos.backoff_resets"] = sum(a.backoff_resets
                                               for a in agents)
        for kind, count in telemetry.faults_injected.items():
            counters[f"chaos.faults_injected{{kind={kind}}}"] = count

    for region in network.regions:
        label = f"{{region={region.index}}}"
        counters[f"federation.checkpoints_committed{label}"] = \
            region.checkpoint_agent.checkpoints_committed
        gauges[f"federation.subchain_height{label}"] = \
            region.master_daemon.node.height

    memo = network.verdict_memo
    for name in ("hits", "misses", "evictions"):
        for kind, value in getattr(memo, name).items():
            counters[f"crypto.verdict_memo.{name}{{kind={kind}}}"] = value
    gauges["crypto.verdict_memo.entries"] = len(memo)
    gauges["sim.queue_length"] = len(network.sim._queue)
    wan = network.wan
    gauges["wan.bytes_per_exchange"] = wan.bytes_modeled / report.completed
    gauges["wan.bytes_per_block"] = sum(
        wan.bytes_by_type.get(name, 0) for name in _BLOCK_MESSAGES
    ) / network.anchor_daemon.node.height

    # The light tier: SPV hosts, their servers, compact relays and both
    # ends of every multicast leg.
    for spv in network.light_clients:
        stats = dict(spv.stats())
        gauges[f"light.spv.tip_height{{host={spv.name}}}"] = \
            stats.pop("tip_height")
        for field, value in stats.items():
            counters[f"light.spv.{field}{{host={spv.name}}}"] = value
        if spv.multicast is not None:
            for field, value in spv.multicast.stats().items():
                counters[f"light.multicast.{field}{{host={spv.name}}}"] = \
                    value
    for server in network.light_servers:
        host = server.daemon.name
        stats = dict(server.stats())
        gauges[f"light.server.clients{{host={host}}}"] = stats.pop("clients")
        for field, value in stats.items():
            counters[f"light.server.{field}{{host={host}}}"] = value
    for relay in network.compact_relays:
        for field, value in relay.stats().items():
            counters[f"light.compact.{field}{{host={relay.daemon.name}}}"] = \
                value
    for multicaster in network.multicasters:
        label = f"{{host={multicaster.name}}}"
        counters[f"light.multicast.rounds_sent{label}"] = \
            multicaster.rounds_sent
        counters[f"light.multicast.rounds_delayed{label}"] = \
            multicaster.rounds_delayed
    return {"counters": counters, "gauges": gauges}


def assert_export_is_the_owners_view(network, injector, report) -> None:
    snapshot = network.registry.snapshot()
    expected = owners_view(network, injector, report)
    assert set(snapshot["counters"]) == set(expected["counters"])
    assert set(snapshot["gauges"]) == set(expected["gauges"])
    for family in ("counters", "gauges"):
        for series, value in expected[family].items():
            assert snapshot[family][series] == value, series


def test_every_series_equals_its_owners_value(run):
    network, injector, report, _assembled = run
    # The run exercised what the export has to follow.
    daemons = network.all_daemons()
    assert daemons["site-1"].stats.restarts == 1
    assert daemons["anchor-r0"].stats.restarts == 1
    assert injector.telemetry.messages_dropped > 0
    assert sum(d.sync_agent.timeouts for d in daemons.values()) > 0
    assert_export_is_the_owners_view(network, injector, report)


def test_every_light_tier_series_equals_its_owners_value():
    """Light recipients, compact relay and multicast on two regions."""
    network = BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=2, seed=11,
        exchange_interval=20.0, sync_interval=10.0,
        topology=RegionTopology(regions=2, roaming="global",
                                checkpoint_interval=20.0),
        light=LightConfig(device_class="light", compact_blocks=True,
                          multicast_interval=15.0, light_sync_interval=30.0)))
    report = network.run(num_exchanges=8)
    # Every light-tier object counted something the export must follow.
    assert len(network.light_clients) == len(network.multicasters) == 4
    assert len(network.compact_relays) == len(network.all_daemons())
    assert all(spv.proofs_verified for spv in network.light_clients)
    assert all(m.rounds_sent for m in network.multicasters)
    assert sum(relay.compact_received for relay in network.compact_relays)
    assert_export_is_the_owners_view(network, None, report)


def test_sub_chain_height_is_the_live_height(run):
    network, _injector, _report, assembled = run
    gauges = network.registry.snapshot()["gauges"]
    for region in network.regions:
        height = region.master_daemon.node.height
        # Not the genesis-era height the chain was assembled at.
        assert height > assembled[region.index]
        assert gauges[f"federation.subchain_height{{region={region.index}}}"] \
            == height


def test_daemon_view_matches_the_export(run):
    network, _injector, _report, _assembled = run
    counters = network.registry.snapshot()["counters"]
    for host, daemon in network.all_daemons().items():
        view = daemon.stats()
        assert view["sync_timeouts"] == \
            counters[f"daemon.sync_timeouts{{host={host}}}"]
        assert view["script_cache_misses"] == \
            counters[f"daemon.script_cache_misses{{host={host}}}"]
