"""Hierarchical federation: regional sub-chains + the global anchor.

The acceptance scenarios for the sharded deployment: intra-region
exchanges settle on their region's own sub-chain, every region anchors
checkpoints onto the settlement chain, cross-region deliveries settle
through the anchor, intra-region latency does not grow with federation
size, and the whole construction is deterministic in the seed.
"""

from __future__ import annotations

import pytest

from repro.blockchain.checkpoint import (
    iter_checkpoints,
    latest_checkpoints,
    settlement_proof,
    verify_settlement,
)
from repro.chaos import assert_hierarchy_converged
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology


def quiesce(network: BcWANNetwork, extra: float = 0.0) -> None:
    """Run past the next block boundary so in-flight gossip lands."""
    interval = network.config.chain.block_interval
    target = ((int(network.sim.now // interval) + 1) * interval
              + extra + 5.0)
    network.sim.run(until=target)


def build(regions: int, per_region: int = 2, **overrides) -> BcWANNetwork:
    options = dict(
        num_gateways=regions * per_region,
        sensors_per_gateway=1,
        exchange_interval=30.0,
        seed=4242,
        topology=RegionTopology(regions=regions, checkpoint_interval=30.0),
    )
    options.update(overrides)
    return BcWANNetwork(NetworkConfig(**options))


def test_two_region_exchanges_settle_on_their_sub_chains():
    network = build(regions=2)
    report = network.run(num_exchanges=4)
    assert report.completed == 4
    # Every delivery stayed home (region roaming is the default): each
    # region's sub-chain carries its own settlements, height > bootstrap.
    for region in network.regions:
        settled = sum(
            1
            for _h, block in region.master_node.chain.iter_active_blocks(
                start_height=1)
            for tx in block.transactions if not tx.is_coinbase
            if not any(iter_checkpoints(tx))
        )
        assert settled > 0, f"{region.chain_id} settled nothing"
    assert all(site.gateway.cross_region_claims == 0
               for site in network.sites)


def test_regions_anchor_checkpoints_on_the_settlement_chain():
    network = build(regions=2)
    network.run(num_exchanges=4)
    # Let at least one more checkpoint interval elapse and confirm.
    network.sim.run(until=network.sim.now + 90.0)
    quiesce(network)
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    assert set(anchored) == {0, 1}
    for region in network.regions:
        checkpoint = anchored[region.index]
        agent = region.checkpoint_agent
        assert checkpoint.epoch >= 1
        assert agent.checkpoints_committed >= checkpoint.epoch
        # The anchored tip digest matches a block the sub-chain actually
        # had at that height (the master's view is authoritative).
        block = region.master_node.chain.block_at(checkpoint.height)
        assert block.hash == checkpoint.tip_hash
        # The settled set is auditable from the global chain alone: every
        # txid the epoch committed proves against the anchored root.
        settled = agent.epoch_settled[checkpoint.epoch]
        assert checkpoint.tx_count == len(settled)
        for txid in settled:
            branch, index = settlement_proof(list(settled), txid)
            assert verify_settlement(txid, branch, index, checkpoint)


def test_hierarchy_convergence_groups():
    network = build(regions=2)
    network.run(num_exchanges=4)
    quiesce(network)
    reports = assert_hierarchy_converged(network.convergence_groups())
    assert set(reports) == {"region-0", "region-1", "anchor"}
    assert set(reports["region-0"].participants) == {
        "master-r0", "site-0", "site-1"}
    assert set(reports["anchor"].participants) == {
        "anchor", "anchor-r0", "anchor-r1"}
    # Different sub-chains genuinely diverge from each other.
    assert (reports["region-0"].tip_hash != reports["region-1"].tip_hash)


def test_cross_region_delivery_settles_through_the_anchor():
    network = build(regions=2, roaming_offset=1,
                    topology=RegionTopology(regions=2, roaming="global",
                                            checkpoint_interval=30.0))
    report = network.run(num_exchanges=8)
    assert report.completed == 8
    # Actors 1 and 3 host their sensors across the region border.
    crossers = [site for site in network.sites
                if site.gateway.cross_region_claims > 0]
    assert crossers, "no cross-region claim was ever made"
    relayed = sum(site.recipient.stats()["claims_relayed"] for site in network.sites)
    assert relayed >= sum(s.gateway.cross_region_claims for s in crossers)
    # The cross-region settlements reach the global chain: the recipient
    # regions' anchored checkpoints commit to a non-empty settled set.
    network.sim.run(until=network.sim.now + 90.0)
    quiesce(network)
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    committed = sum(
        len(network.regions[r].checkpoint_agent.epoch_settled[epoch])
        for r in anchored
        for epoch in range(1, anchored[r].epoch + 1)
    )
    assert committed > 0


def test_intra_region_latency_independent_of_federation_size():
    """Sharding's point: adding regions must not slow local exchanges."""
    means = {}
    for regions in (1, 3):
        network = build(regions=regions)
        report = network.run(num_exchanges=4 * regions)
        assert report.completed == 4 * regions
        means[regions] = report.mean_latency
    assert means[3] < means[1] * 1.75, (
        f"intra-region latency grew with federation size: {means}")


def test_same_seed_hierarchical_run_is_byte_identical():
    exports = []
    for _ in range(2):
        network = build(regions=2, tracing=True)
        network.run(num_exchanges=4)
        quiesce(network)
        exports.append(network.export_trace())
    assert exports[0] == exports[1]


def test_four_by_four_acceptance():
    """The ISSUE's headline scenario: 4 regions x 4 gateways."""
    network = build(regions=4, per_region=4)
    report = network.run(num_exchanges=16)
    assert report.completed == 16
    network.sim.run(until=network.sim.now + 90.0)
    quiesce(network)
    anchored = latest_checkpoints(network.anchor_daemon.node.chain)
    assert set(anchored) == {0, 1, 2, 3}
    reports = assert_hierarchy_converged(network.convergence_groups())
    assert len(reports) == 5  # 4 sub-chains + the anchor
