"""Compact block relay: sketches, mempool reconstruction, and fallback."""

from __future__ import annotations

import random

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.light.compact import (
    CompactBlockRelay,
    make_compact_block,
    short_txid,
)
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


def make_pair(fallback_timeout=10.0):
    """Two connected daemons with compact relay, A holding mined funds."""
    sim = Simulator()
    rngs = RngRegistry(0xBC)
    wan = WANetwork(sim, rngs.stream("wan"),
                    latency=ConstantLatency(delay=0.05))
    params = ChainParams(coinbase_maturity=1)
    cost = CostModel(jitter_sigma=0.0)
    daemons = []
    for name in ("a", "b"):
        node = FullNode(params, name)
        daemon = BlockchainDaemon(sim, name, wan, node, cost,
                                  rngs.stream(f"daemon-{name}"))
        daemons.append(daemon)
    a, b = daemons
    a.gossip.connect("b")
    b.gossip.connect("a")
    relays = [CompactBlockRelay(d) for d in daemons]
    for relay in relays:
        relay.FALLBACK_TIMEOUT = fallback_timeout
    wallet = Wallet(a.node.chain, KeyPair.generate(random.Random(7)))
    wallet.watch_chain()
    miner = Miner(chain=a.node.chain, mempool=a.node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    return sim, a, b, relays, wallet, miner


def sync_genesis(sim, a, b, miner):
    """Mine the funding prefix and gossip it over (full sync via relay)."""
    for i in range(2):
        block = miner.mine_and_connect(float(sim.now + i))
        a.gossip.broadcast_block(block)
    sim.run(until=sim.now + 5)


# -- sketch construction -------------------------------------------------------

def test_short_txids_are_block_salted():
    txid = b"\x01" * 32
    assert short_txid(b"\xaa" * 32, txid) != short_txid(b"\xbb" * 32, txid)
    assert len(short_txid(b"\xaa" * 32, txid)) == 6


def test_make_compact_block_prefills_coinbase():
    sim, a, b, relays, wallet, miner = make_pair()
    block = miner.mine_and_connect(0.0)
    sketch = make_compact_block(block)
    assert sketch.tx_count == len(block.transactions)
    assert len(sketch.short_ids) == sketch.tx_count - 1
    assert sketch.prefilled[0][0] == 0  # the coinbase position


# -- reconstruction ------------------------------------------------------------

def test_mempool_hit_reconstructs_without_roundtrip():
    sim, a, b, relays, wallet, miner = make_pair()
    sync_genesis(sim, a, b, miner)
    # The tx reaches B's mempool via gossip before the block arrives.
    tx = wallet.create_payment(wallet.pubkey_hash, 10)
    a.gossip.broadcast_transaction(tx)
    sim.run(until=sim.now + 2)
    assert tx.txid in b.node.mempool
    block = miner.mine_and_connect(sim.now)
    a.gossip.broadcast_block(block)
    sim.run(until=sim.now + 5)
    relay_b = relays[1]
    assert relay_b.reconstructed_from_mempool >= 1
    assert relay_b.fallback_roundtrips == 0
    assert relay_b.txs_from_mempool >= 1
    assert b.node.chain.tip.hash == block.hash


def test_missing_tx_falls_back_to_getblocktxn():
    sim, a, b, relays, wallet, miner = make_pair()
    sync_genesis(sim, a, b, miner)
    # Keep the tx out of B's mempool: submit locally without gossip.
    tx = wallet.create_payment(wallet.pubkey_hash, 10)
    assert a.node.submit_transaction(tx).accepted
    block = miner.mine_and_connect(sim.now)
    a.gossip.broadcast_block(block)
    sim.run(until=sim.now + 5)
    relay_b = relays[1]
    assert relay_b.fallback_roundtrips == 1
    assert relay_b.reconstructed_after_fallback == 1
    assert relay_b.txs_fetched >= 1
    assert b.node.chain.tip.hash == block.hash


def test_fallback_deadline_gives_up():
    sim, a, b, relays, wallet, miner = make_pair(fallback_timeout=1.0)
    sync_genesis(sim, a, b, miner)
    tx = wallet.create_payment(wallet.pubkey_hash, 10)
    assert a.node.submit_transaction(tx).accepted
    block = miner.mine_and_connect(sim.now)
    # A goes silent right after announcing: the getblocktxn dies.
    a.network.set_host_down("a")
    relays[0].announce(block)
    sim.run(until=sim.now + 5)
    relay_b = relays[1]
    assert relay_b.fallback_roundtrips == 1
    assert relay_b.reconstruct_failed == 1
    assert b.node.chain.tip.hash != block.hash  # sync must recover later


def test_duplicate_sketch_ignored():
    sim, a, b, relays, wallet, miner = make_pair()
    sync_genesis(sim, a, b, miner)
    before = relays[1].compact_received
    block = miner.mine_and_connect(sim.now)
    relays[0].announce(block)
    relays[0].announce(block)
    sim.run(until=sim.now + 5)
    assert relays[1].compact_received == before + 1


def test_reconstructed_block_connects_chain():
    """End to end over several blocks: B tracks A byte-for-byte."""
    sim, a, b, relays, wallet, miner = make_pair()
    sync_genesis(sim, a, b, miner)
    for _ in range(4):
        tx = wallet.create_payment(wallet.pubkey_hash, 5)
        a.gossip.broadcast_transaction(tx)
        sim.run(until=sim.now + 2)
        block = miner.mine_and_connect(sim.now)
        a.gossip.broadcast_block(block)
        sim.run(until=sim.now + 3)
    assert b.node.chain.height == a.node.chain.height
    assert b.node.chain.tip.hash == a.node.chain.tip.hash
    stats = relays[1].stats()
    # 2 genesis-sync blocks + 4 payment blocks, all without a roundtrip.
    assert stats["reconstructed_from_mempool"] == 6
    assert stats["reconstruct_failed"] == 0
