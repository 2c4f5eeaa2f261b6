"""Anti-entropy sync: recovery from lost gossip on a lossy WAN."""

from __future__ import annotations

import random

import pytest

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.p2p.message import BlockMessage
from repro.p2p.sync import SyncAgent
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


def build_pair(loss_rate=0.0, sync_interval=5.0):
    """Two daemons (a, b) plus a funded miner wallet on a."""
    sim = Simulator()
    rngs = RngRegistry(3)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=0.01),
                    loss_rate=loss_rate)
    params = ChainParams(coinbase_maturity=1)
    cost = CostModel(jitter_sigma=0.0)
    daemons = []
    for name in ("a", "b"):
        node = FullNode(params, name)
        daemon = BlockchainDaemon(sim, name, wan, node, cost,
                                  rngs.stream(f"d-{name}"),
                                  verify_blocks=False)
        daemons.append(daemon)
    daemons[0].gossip.connect("b")
    daemons[1].gossip.connect("a")
    agents = [SyncAgent(sim, daemon, interval=sync_interval)
              for daemon in daemons]

    wallet = Wallet(daemons[0].node.chain, KeyPair.generate(random.Random(1)))
    wallet.watch_chain()
    miner = Miner(chain=daemons[0].node.chain, mempool=daemons[0].node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    return sim, wan, daemons, agents, wallet, miner


def test_blocks_recovered_after_total_gossip_loss():
    sim, wan, daemons, agents, _wallet, miner = build_pair(sync_interval=5.0)
    # Mine three blocks on 'a' and never gossip them at all.
    for i in range(3):
        miner.mine_and_connect(float(i))
    assert daemons[1].node.height == 0
    sim.run(until=12.0)  # two sync rounds
    assert daemons[1].node.height == 3
    assert agents[1].blocks_recovered == 3


def test_mempool_transactions_recovered():
    sim, _wan, daemons, agents, wallet, miner = build_pair(sync_interval=5.0)
    for i in range(2):
        miner.mine_and_connect(float(i))
    # Let 'b' catch up on blocks first.
    sim.run(until=11.0)
    assert daemons[1].node.height == 2
    tx = wallet.create_payment(KeyPair.generate(random.Random(2)).pubkey_hash,
                               100)
    assert daemons[0].node.submit_transaction(tx).accepted
    sim.run(until=25.0)
    assert tx.txid in daemons[1].node.mempool
    assert agents[1].txs_recovered >= 1 or agents[0].rounds >= 1


def test_sync_is_bidirectional():
    """A probe from the behind node also pushes its mempool to the peer."""
    sim, _wan, daemons, _agents, wallet, miner = build_pair(sync_interval=5.0)
    for i in range(2):
        miner.mine_and_connect(float(i))
    sim.run(until=11.0)
    # Create a tx known only to 'b' (submitted locally there).
    wallet_b = Wallet(daemons[1].node.chain, wallet.keypair)
    wallet_b.watch_chain()
    wallet_b.refresh_from_utxo_set()
    tx = wallet_b.create_payment(
        KeyPair.generate(random.Random(9)).pubkey_hash, 100)
    assert daemons[1].node.submit_transaction(tx).accepted
    sim.run(until=30.0)
    assert tx.txid in daemons[0].node.mempool


def test_convergence_under_heavy_loss():
    """With 40% message loss, push gossip alone cannot guarantee
    convergence; sync must still get both nodes to the same tip."""
    sim, _wan, daemons, _agents, _wallet, miner = build_pair(
        loss_rate=0.4, sync_interval=4.0)
    for i in range(5):
        block = miner.mine_and_connect(float(i))
        daemons[0].gossip.broadcast_block(block)
    sim.run(until=120.0)
    assert daemons[1].node.height == 5
    assert daemons[1].node.chain.tip.hash == daemons[0].node.chain.tip.hash


def test_sync_respects_block_batch_limit():
    sim, _wan, daemons, agents, _wallet, miner = build_pair(sync_interval=5.0)
    # The batch limit is enforced by the *responder* ('a' serves blocks).
    agents[0].MAX_BLOCKS_PER_ROUND = 2
    for i in range(5):
        miner.mine_and_connect(float(i))
    sim.run(until=30.0)
    # Catch-up is pipelined within one session, but each BlocksMessage
    # still honours the responder's cap: 5 blocks need >= 3 batches.
    assert daemons[1].node.height == 5
    assert agents[1].batches_received >= 3
    assert agents[1].catchup_sessions >= 1


def test_in_sync_peers_exchange_nothing_heavy():
    sim, wan, daemons, agents, _wallet, _miner = build_pair(sync_interval=5.0)
    sim.run(until=21.0)
    # Only GetTip/Tip probes: 2 agents x 4 rounds x 2 messages.
    assert agents[0].blocks_recovered == 0
    assert agents[1].blocks_recovered == 0
    assert wan.messages_sent <= 20
