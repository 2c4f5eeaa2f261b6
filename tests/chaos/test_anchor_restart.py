"""A restarted settlement node keeps enforcing the checkpoint rules.

``anchor-r0`` crashes mid-run and comes back either with its chain store
(``preserve_chain``) or with nothing (state loss, re-synced from its
peers).  Either way its engine's fresh ``CheckpointRules`` are rebuilt by
the blocks it replays or re-syncs, and it must go on refusing a
checkpoint that does not advance its region's anchored epoch.
"""

from __future__ import annotations

import pytest

from repro.blockchain.checkpoint import (EMPTY_EPOCH_ROOT,
                                         build_checkpoint_payload,
                                         latest_checkpoints)
from repro.blockchain.mempool import REJECT_CHECKPOINT
from repro.blockchain.wallet import Wallet
from repro.chaos import ChaosInjector, FaultPlan
from repro.core import BcWANNetwork, NetworkConfig, RegionTopology


@pytest.mark.parametrize("preserve_chain", [False, True])
def test_restarted_anchor_node_refuses_stale_checkpoints(preserve_chain):
    network = BcWANNetwork(NetworkConfig(
        num_gateways=4, sensors_per_gateway=0, seed=77, sync_interval=10.0,
        topology=RegionTopology(regions=2, checkpoint_interval=20.0)))
    plan = FaultPlan(seed=77).crash("anchor-r0", at=50.0, restart_at=70.0,
                                    preserve_chain=preserve_chain)
    ChaosInjector(network.sim, network.wan, plan,
                  daemons=network.all_daemons(),
                  registry=network.registry).install()
    network.sim.run(until=200.0)

    region = network.regions[0]
    daemon = region.anchor_daemon
    assert daemon.stats.restarts == 1
    node = daemon.node
    anchored = latest_checkpoints(node.chain)[0]
    assert anchored.epoch >= 2  # the recovered chain carries checkpoints

    wallet = Wallet(node.chain, region.anchor_wallet.keypair)
    wallet.watch_chain()
    for epoch in (anchored.epoch, anchored.epoch - 1):
        stale = wallet.create_announcement(build_checkpoint_payload(
            region_id=0, epoch=epoch, height=anchored.height,
            tip_hash=b"\x0a" * 32, settled_root=EMPTY_EPOCH_ROOT,
            tx_count=0))
        decision = node.mempool.accept(stale)
        assert not decision.accepted
        assert decision.reason_code == REJECT_CHECKPOINT
        assert "stale checkpoint" in decision.reason
        wallet.release_pending(stale)
