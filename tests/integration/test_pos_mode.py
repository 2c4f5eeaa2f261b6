"""Proof-of-stake consensus mode (§6 future work) at network scale."""

from __future__ import annotations

import pytest

from repro.core import BcWANNetwork, NetworkConfig

POS = dict(num_gateways=3, sensors_per_gateway=3, exchange_interval=25.0,
           seed=31, consensus="pos")


@pytest.fixture(scope="module")
def pos_run():
    network = BcWANNetwork(NetworkConfig(**POS))
    report = network.run(num_exchanges=20)
    return network, report


def test_exchanges_complete_under_pos(pos_run):
    _network, report = pos_run
    assert report.completed >= 16
    # Still the Fig. 5 latency regime — consensus change, same protocol.
    assert report.mean_latency < 5.0


def test_chain_grows_without_master_mining(pos_run):
    network, report = pos_run
    assert report.chain_height > 3  # beyond the bootstrap blocks
    # The master funds and bootstraps but produces nothing at runtime.
    for _height, block in network.master_daemon.node.chain.iter_active_blocks(1):
        if block.header.timestamp > 0:
            payee = block.coinbase.outputs[0].script_pubkey.elements[2]
            assert payee != network.master_wallet.pubkey_hash


def test_produced_blocks_follow_the_lottery(pos_run):
    from repro.blockchain.pos import slot_of
    network, _report = pos_run
    registry = network.stake_registry
    reward_of = {site.wallet.pubkey_hash: site.name
                 for site in network.sites}
    runtime_blocks = 0
    for _height, block in network.sites[0].node.chain.iter_active_blocks(1):
        if block.header.timestamp <= 0:
            continue
        runtime_blocks += 1
        leader = registry.leader_for_slot(
            slot_of(block.header.timestamp, registry.slot_duration))
        payee = block.coinbase.outputs[0].script_pubkey.elements[2]
        assert reward_of[payee] == leader
    assert runtime_blocks > 0


def test_all_sites_converge(pos_run):
    network, _report = pos_run
    network.sim.run(until=network.sim.now + 60.0)
    tips = {site.node.chain.tip.hash for site in network.sites}
    tips.add(network.master_daemon.node.chain.tip.hash)
    assert len(tips) == 1


def test_impostor_blocks_rejected():
    """A block whose coinbase pays a non-leader is refused by peers."""
    from repro.blockchain.block import Block
    from repro.blockchain.miner import Miner
    from repro.p2p.message import BlockMessage

    network = BcWANNetwork(NetworkConfig(**POS))
    network.sim.run(until=5.0)
    cheater = network.sites[0]
    victim = network.sites[1]
    # The cheater mines a block paying itself regardless of the lottery,
    # stamped inside a slot it does NOT lead.
    registry = network.stake_registry
    slot = next(
        s for s in range(2, 50)
        if registry.leader_for_slot(s) != cheater.name
    )
    timestamp = slot * registry.slot_duration + 1.0
    miner = Miner(chain=cheater.node.chain, mempool=cheater.node.mempool,
                  reward_pubkey_hash=cheater.wallet.pubkey_hash)
    template = miner.build_template(timestamp)
    rejected_before = victim.daemon.blocks_rejected_consensus
    network.wan.send(cheater.name, victim.name, BlockMessage(block=template))
    network.sim.run(until=network.sim.now + 10.0)
    assert victim.daemon.blocks_rejected_consensus == rejected_before + 1
    assert not victim.node.chain.contains(template.hash)


def test_unendorsed_block_naming_the_leader_is_adopted():
    """The stated gap (``blockchain/pos.py``, ROADMAP item 6): the leader's
    endorsement is signed but not relayed, so a peer checks only whom the
    coinbase pays.  A block a *non-leader* assembled in the leader's name
    is adopted.  Wiring ``StakeRegistry.verify_block_signature`` into the
    relay flips the last two assertions."""
    from repro.blockchain.miner import Miner
    from repro.p2p.message import BlockMessage

    network = BcWANNetwork(NetworkConfig(**POS))
    network.sim.run(until=5.0)
    forger, victim = network.sites[0], network.sites[1]
    registry = network.stake_registry
    slot = next(s for s in range(2, 50)
                if registry.leader_for_slot(s) != forger.name)
    leader = next(site for site in network.sites
                  if site.name == registry.leader_for_slot(slot))
    miner = Miner(chain=forger.node.chain, mempool=forger.node.mempool,
                  reward_pubkey_hash=leader.wallet.pubkey_hash)
    forged = miner.build_template(slot * registry.slot_duration + 1.0)
    rejected_before = victim.daemon.blocks_rejected_consensus
    network.wan.send(forger.name, victim.name, BlockMessage(block=forged))
    network.sim.run(until=network.sim.now + 10.0)
    assert victim.daemon.blocks_rejected_consensus == rejected_before
    assert victim.node.chain.contains(forged.hash)


def test_pos_determinism():
    r1 = BcWANNetwork(NetworkConfig(**POS)).run(num_exchanges=10)
    r2 = BcWANNetwork(NetworkConfig(**POS)).run(num_exchanges=10)
    assert r1.latencies == r2.latencies


def test_invalid_consensus_name_rejected():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        NetworkConfig(consensus="paxos")
