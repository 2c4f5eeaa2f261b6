"""ChaosInjector: interception mechanics and per-fault telemetry."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosInjector, FaultPlan, build_federation
from repro.chaos.faults import CorruptedPayload
from repro.errors import ConfigurationError


def run_with_plan(plan, size=3, seed=11, until=30.0, mine=2):
    fed = build_federation(size=size, seed=seed)
    fed.run_plan(plan)
    miner = fed.make_miner("gw-0", key_seed=1)
    for i in range(mine):
        def job(i=i):
            block = miner.mine_and_connect(float(i))
            fed.daemons["gw-0"].gossip.broadcast_block(block)
        fed.sim.call_at(1.0 + i, job)
    fed.sim.run(until=until)
    return fed


def test_one_injector_per_network():
    fed = build_federation(size=2, seed=1)
    fed.run_plan(FaultPlan())
    with pytest.raises(ConfigurationError):
        ChaosInjector(fed.sim, fed.wan, FaultPlan()).install()


def test_install_is_idempotent():
    fed = build_federation(size=2, seed=1)
    injector = fed.run_plan(FaultPlan())
    assert injector.install() is injector


def test_total_link_loss_blocks_gossip_but_counts_drops():
    plan = FaultPlan(seed=5).lose_links(
        1.0, payload_kinds=("BlockMessage",), start=0.0, end=10.0)
    fed = run_with_plan(plan, until=9.0)
    telemetry = fed.injector.telemetry
    assert telemetry.messages_dropped > 0
    assert telemetry.faults_injected["link-loss"] == telemetry.messages_dropped
    assert fed.wan.drops_injected == telemetry.messages_dropped
    # Push gossip is dead; only sync (whose messages are not BlockMessage
    # pushes... but BlocksMessage batches are fine) can still catch up.
    assert fed.daemons["gw-1"].node.height >= 0


def test_corruption_replaces_payload_and_is_ignored():
    plan = FaultPlan(seed=5).corrupt_links(
        1.0, payload_kinds=("BlockMessage",), start=0.0, end=10.0)
    fed = run_with_plan(plan, until=9.0)
    telemetry = fed.injector.telemetry
    assert telemetry.messages_corrupted > 0
    assert fed.wan.messages_corrupted == telemetry.messages_corrupted
    # Corrupted frames are delivered (latency paid) then dropped on the
    # floor: no daemon ever processes a CorruptedPayload.
    for daemon in fed.daemons.values():
        assert CorruptedPayload not in daemon.protocol_handlers


def test_duplication_inflates_delivery_counts():
    plan = FaultPlan(seed=5).duplicate_links(1.0, copies=2,
                                             start=0.0, end=10.0)
    fed = run_with_plan(plan, until=9.0)
    telemetry = fed.injector.telemetry
    assert telemetry.messages_duplicated > 0
    assert fed.wan.messages_duplicated == telemetry.messages_duplicated
    # Dedup absorbs the copies: gw-1 still converges to gw-0's chain.
    assert (fed.daemons["gw-1"].node.chain.tip.hash
            == fed.daemons["gw-0"].node.chain.tip.hash)


def test_delayed_links_are_counted():
    plan = FaultPlan(seed=5).delay_links(1.0, extra_delay=0.2,
                                         start=0.0, end=5.0)
    fed = run_with_plan(plan, until=20.0)
    telemetry = fed.injector.telemetry
    assert telemetry.messages_delayed > 0
    assert telemetry.faults_injected["link-delay"] > 0


def test_partition_drop_counters_and_lifecycle_log():
    plan = FaultPlan(seed=5).partition(
        [["gw-0"], ["gw-1", "gw-2"]], start=0.5, heal_at=8.0)
    fed = run_with_plan(plan, until=20.0)
    telemetry = fed.injector.telemetry
    assert telemetry.partitions_started == 1
    assert telemetry.partitions_healed == 1
    assert telemetry.partition_drops > 0
    kinds = [line.split()[1] for line in telemetry.fault_log]
    assert "partition-start" in kinds
    assert "partition-heal" in kinds
    assert kinds.count("partition-drop") == telemetry.partition_drops


def test_fault_log_never_leaks_message_ids():
    """Log lines carry times, hosts and payload kinds — nothing derived
    from the process-global envelope counter (which would break
    cross-run byte-identity)."""
    plan = FaultPlan(seed=5).lose_links(0.5, start=0.0, end=10.0)
    fed = run_with_plan(plan, until=9.0)
    for line in fed.injector.telemetry.fault_log:
        assert "message_id" not in line
        assert line.startswith("t=")
