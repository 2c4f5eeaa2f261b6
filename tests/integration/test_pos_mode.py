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
            assert payee != network.producers["chain"].wallet.pubkey_hash


def test_produced_blocks_follow_the_lottery(pos_run):
    from repro.blockchain.pos import slot_of
    network, _report = pos_run
    registry = network.producers["chain"].schedule
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


def _forge(network, payee_of_leader: bool):
    """A block a non-leader assembles on its tip for a slot it does not
    lead, paying itself or (``payee_of_leader``) the slot's leader."""
    from repro.blockchain.miner import Miner

    forger = network.sites[0]
    registry = network.producers["chain"].schedule
    slot = next(s for s in range(2, 50)
                if registry.leader_for_slot(s) != forger.name)
    payee = forger
    if payee_of_leader:
        payee = next(site for site in network.sites
                     if site.name == registry.leader_for_slot(slot))
    miner = Miner(chain=forger.node.chain, mempool=forger.node.mempool,
                  reward_pubkey_hash=payee.wallet.pubkey_hash)
    return forger, miner.build_template(slot * registry.slot_duration + 1.0)


def test_impostor_blocks_rejected():
    """A block whose coinbase pays a non-leader is refused by peers."""
    from repro.p2p.message import BlockMessage

    network = BcWANNetwork(NetworkConfig(**POS))
    network.sim.run(until=5.0)
    victim = network.sites[1]
    forger, forged = _forge(network, payee_of_leader=False)
    network.wan.send(forger.name, victim.name, BlockMessage(block=forged))
    network.sim.run(until=network.sim.now + 10.0)
    assert not victim.node.chain.contains(forged.hash)


def test_unendorsed_block_naming_the_leader_is_rejected():
    """Paying the leader is not enough: a block a *non-leader* assembled
    in the leader's name lacks the leader's endorsement and is refused."""
    from repro.p2p.message import BlockMessage

    network = BcWANNetwork(NetworkConfig(**POS))
    network.sim.run(until=5.0)
    victim = network.sites[1]
    forger, forged = _forge(network, payee_of_leader=True)
    network.wan.send(forger.name, victim.name, BlockMessage(block=forged))
    network.sim.run(until=network.sim.now + 10.0)
    assert not victim.node.chain.contains(forged.hash)


def test_non_leader_block_via_sync_is_refused():
    """Anti-entropy sync hands blocks to gossip without the daemon's
    block path; the leader rule runs in the engine, so it still holds."""
    from repro.p2p.sync import BlocksMessage

    network = BcWANNetwork(NetworkConfig(**POS, sync_interval=10.0))
    network.sim.run(until=5.0)
    victim = network.sites[1]
    forger, forged = _forge(network, payee_of_leader=False)
    network.wan.send(forger.name, victim.name,
                     BlocksMessage(blocks=(forged,)))
    network.sim.run(until=network.sim.now + 10.0)
    assert not victim.node.chain.contains(forged.hash)
    assert victim.daemon.sync_agent.batches_received >= 1


def test_timestamp_zero_block_on_the_live_tip_is_refused():
    """Only the genesis era is exempt from the leader rule: a block stamped
    0 that extends the live tip is refused, by gossip and by sync alike."""
    from repro.blockchain.miner import Miner
    from repro.p2p.message import BlockMessage
    from repro.p2p.sync import BlocksMessage

    network = BcWANNetwork(NetworkConfig(**POS, sync_interval=10.0))
    network.sim.run(until=5.0)
    forger = network.sites[0]
    forged = Miner(chain=forger.node.chain, mempool=forger.node.mempool,
                   reward_pubkey_hash=forger.wallet.pubkey_hash
                   ).build_template(0.0)
    by_gossip, by_sync = network.sites[1], network.sites[2]
    network.wan.send(forger.name, by_gossip.name, BlockMessage(block=forged))
    network.wan.send(forger.name, by_sync.name,
                     BlocksMessage(blocks=(forged,)))
    network.sim.run(until=network.sim.now + 10.0)
    assert not by_gossip.node.chain.contains(forged.hash)
    assert not by_sync.node.chain.contains(forged.hash)
    assert by_sync.daemon.sync_agent.batches_received >= 1


def test_pos_determinism():
    r1 = BcWANNetwork(NetworkConfig(**POS)).run(num_exchanges=10)
    r2 = BcWANNetwork(NetworkConfig(**POS)).run(num_exchanges=10)
    assert r1.latencies == r2.latencies


def test_invalid_consensus_name_rejected():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        NetworkConfig(consensus="paxos")
