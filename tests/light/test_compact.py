"""Compact block relay: sketches, mempool reconstruction, and fallback."""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.wallet import Wallet
from repro.core.costmodel import CostModel
from repro.core.daemon import BlockchainDaemon
from repro.crypto.keys import KeyPair
from repro.light import compact
from repro.light.compact import (
    CompactBlockRelay,
    make_compact_block,
    short_txid,
)
from repro.p2p.message import BlockTxnMessage
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


# -- the fallback's failure paths --------------------------------------------

def _block_with_unsent_payments(sim, a, wallet, miner, count=2):
    """A block on A carrying ``count`` payments that only A's mempool had."""
    txs = []
    for _ in range(count):
        tx = wallet.create_payment(wallet.pubkey_hash, 5)
        assert a.node.submit_transaction(tx).accepted
        txs.append(tx)
    block = miner.mine_and_connect(sim.now)
    assert [tx.txid for tx in block.transactions[1:]] == [
        tx.txid for tx in txs]
    return block, txs


def _collide(monkeypatch, impostor, victim):
    """Give ``impostor`` the short id of ``victim`` in every block."""
    real = compact.short_txid
    monkeypatch.setattr(
        compact, "short_txid",
        lambda block_hash, txid: real(
            block_hash, victim.txid if txid == impostor.txid else txid))


def _colliding_sketch(monkeypatch, sim, a, b, wallet, miner):
    """B holds an impostor under the short id of the block's first
    payment and lacks the second: the sketch fills one slot wrongly and
    asks A for the other."""
    sync_genesis(sim, a, b, miner)
    sync_genesis(sim, a, b, miner)  # four mature coins
    impostor = wallet.create_payment(wallet.pubkey_hash, 7)
    assert b.node.submit_transaction(impostor).accepted
    block, (victim, _absent) = _block_with_unsent_payments(
        sim, a, wallet, miner)
    _collide(monkeypatch, impostor, victim)
    return block, impostor


def test_colliding_slot_refetches_every_position_once(monkeypatch):
    """The rebuilt block's Merkle root is wrong: one refetch of every
    position from the same peer, whose honest reply rebuilds it."""
    sim, a, b, relays, wallet, miner = make_pair()
    block, _impostor = _colliding_sketch(monkeypatch, sim, a, b, wallet,
                                         miner)
    relays[0].announce(block)
    sim.run(until=sim.now + 5)
    relay_b = relays[1]
    assert relay_b.txs_from_mempool >= 1
    assert relay_b.fallback_roundtrips == 2
    assert relay_b.txs_fetched == 1 + len(block.transactions)
    assert relay_b.reconstructed_after_fallback == 1
    assert relay_b.reconstruct_failed == 0
    assert b.node.chain.tip.hash == block.hash


def test_refetched_block_still_wrong_gives_up(monkeypatch):
    """The peer answers the refetch of every position with the same
    colliding transaction: the relay gives up, and asks no third time."""
    sim, a, b, relays, wallet, miner = make_pair()
    block, impostor = _colliding_sketch(monkeypatch, sim, a, b, wallet,
                                        miner)
    served = SimpleNamespace(block=SimpleNamespace(
        transactions=[block.transactions[0], impostor,
                      *block.transactions[2:]]))
    monkeypatch.setattr(a.node.chain, "record_for", lambda _hash: served)
    relays[0].announce(block)
    sim.run(until=sim.now + 2)  # both replies in, no deadline reached
    relay_b = relays[1]
    assert relay_b.fallback_roundtrips == 2
    assert relay_b.reconstruct_failed == 1
    sim.run(until=sim.now + 2 * relay_b.FALLBACK_TIMEOUT)
    assert relay_b.fallback_roundtrips == 2
    assert relay_b.reconstruct_failed == 1
    assert relay_b.reconstructed_after_fallback == 0
    assert b.node.chain.tip.hash != block.hash


def _silent_holder(monkeypatch, sim, a, b, wallet, miner):
    """A block B must fetch one payment of, from an A that never serves
    it: the test plays A's reply."""
    sync_genesis(sim, a, b, miner)
    block, _txs = _block_with_unsent_payments(sim, a, wallet, miner, count=1)
    monkeypatch.setattr(a.node.chain, "record_for", lambda _hash: None)
    return block


def test_reply_leaving_a_slot_empty_fails_the_sketch(monkeypatch):
    sim, a, b, relays, wallet, miner = make_pair()
    block = _silent_holder(monkeypatch, sim, a, b, wallet, miner)
    relays[0].announce(block)
    sim.run(until=sim.now + 1)
    relay_b = relays[1]
    assert relay_b.fallback_roundtrips == 1
    # The asked position, and no transaction for it.
    a.network.send("a", "b", BlockTxnMessage(
        block_hash=block.hash, indexes=(1,), transactions=()))
    sim.run(until=sim.now + 1)
    assert relay_b.reconstruct_failed == 1
    assert relay_b.txs_fetched == 0
    # Answered: the deadline finds nothing to fail a second time.
    sim.run(until=sim.now + 2 * relay_b.FALLBACK_TIMEOUT)
    assert relay_b.reconstruct_failed == 1
    assert relay_b.reconstructed_after_fallback == 0
    assert b.node.chain.tip.hash != block.hash


def test_replies_nobody_asked_for_are_ignored():
    sim, a, b, relays, wallet, miner = make_pair()
    sync_genesis(sim, a, b, miner)
    block, (tx,) = _block_with_unsent_payments(sim, a, wallet, miner, count=1)
    relays[0].announce(block)
    raw = (block.transactions[0].serialize(), tx.serialize())
    # Behind the sketch: a block B never saw, then the right block but
    # positions B did not ask for.
    a.network.send("a", "b", BlockTxnMessage(
        block_hash=b"\x42" * 32, indexes=(0, 1), transactions=raw))
    a.network.send("a", "b", BlockTxnMessage(
        block_hash=block.hash, indexes=(0, 1), transactions=raw))
    sim.run(until=sim.now + 5)
    relay_b = relays[1]
    assert relay_b.fallback_roundtrips == 1
    assert relay_b.txs_fetched == 1  # A's own reply, and only that
    assert relay_b.reconstructed_after_fallback == 1
    assert relay_b.reconstruct_failed == 0
    assert b.node.chain.tip.hash == block.hash
