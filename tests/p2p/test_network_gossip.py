"""WAN message passing and blockchain gossip."""

from __future__ import annotations

import pytest

from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.miner import Miner
from repro.blockchain.wallet import Wallet
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError
from repro.p2p.dedup import LRUSet
from repro.p2p.gossip import GossipNode
from repro.p2p.message import TxMessage
from repro.p2p.network import WANetwork
from repro.sim.core import Simulator
from repro.sim.latency import ConstantLatency
from repro.sim.rng import RngRegistry


def make_wan(seed=0, loss_rate=0.0, delay=0.05):
    sim = Simulator()
    wan = WANetwork(sim, RngRegistry(seed).stream("wan"),
                    latency=ConstantLatency(delay=delay),
                    loss_rate=loss_rate)
    return sim, wan


# -- WANetwork ----------------------------------------------------------------

def test_send_delivers_after_latency():
    sim, wan = make_wan(delay=0.2)
    received = []
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: received.append((sim.now, env.payload)))
    wan.send("a", "b", "hello")
    sim.run()
    assert received == [(0.2, "hello")]


def test_duplicate_registration_rejected():
    _sim, wan = make_wan()
    wan.register("a", lambda env: None)
    with pytest.raises(ConfigurationError):
        wan.register("a", lambda env: None)


def test_unknown_destination_drops():
    sim, wan = make_wan()
    wan.register("a", lambda env: None)
    wan.send("a", "ghost", "x")
    sim.run()
    assert wan.messages_lost == 1
    assert wan.messages_delivered == 0


def test_loss_rate():
    sim, wan = make_wan(loss_rate=0.5)
    received = []
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: received.append(env))
    for _ in range(200):
        wan.send("a", "b", "x")
    sim.run()
    assert 50 < len(received) < 150  # ~100 expected


def test_broadcast_excludes_source_and_excluded():
    """The source is the one host a broadcast leaves out."""
    sim, wan = make_wan()
    received = {"b": [], "c": []}
    wan.register("a", lambda env: pytest.fail("self-delivery"))
    wan.register("b", lambda env: received["b"].append(env))
    wan.register("c", lambda env: received["c"].append(env))
    count = wan.broadcast("a", "y")
    sim.run()
    assert count == 2
    assert len(received["b"]) == 1 and len(received["c"]) == 1


def test_loss_rate_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        WANetwork(sim, RngRegistry(0).stream("x"), ConstantLatency(),
                  loss_rate=1.0)


def test_envelope_metadata():
    sim, wan = make_wan()
    captured = []
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: captured.append(env))
    wan.send("a", "b", 123)
    sim.run()
    env = captured[0]
    assert env.source == "a" and env.destination == "b"
    assert env.payload == 123


# -- gossip -------------------------------------------------------------------------

def make_cluster(n=3):
    """n gossip nodes, full mesh, zero-latency-ish WAN."""
    sim, wan = make_wan(delay=0.01)
    params = ChainParams(coinbase_maturity=1)
    nodes = [GossipNode(FullNode(params, f"n{i}"), wan, name=f"n{i}")
             for i in range(n)]
    for node in nodes:
        wan.register(node.name, node.handle_envelope)
    for a in nodes:
        for b in nodes:
            if a is not b:
                a.connect(b.name)
    return sim, wan, nodes


def funded(node_gossip, rng_seed=0):
    import random
    rng = random.Random(rng_seed)
    wallet = Wallet(node_gossip.node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node_gossip.node.chain,
                  mempool=node_gossip.node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    return wallet, miner


def test_transaction_floods_to_all_peers():
    sim, _wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(3)]
    for gossip in nodes:
        for block in blocks:
            if gossip is not nodes[0]:
                gossip.node.submit_block(block)
    tx = wallet.create_payment(b"\x07" * 20, 100)
    assert nodes[0].broadcast_transaction(tx)
    sim.run()
    for gossip in nodes:
        assert tx.txid in gossip.node.mempool


def test_block_floods_and_connects():
    sim, _wan, nodes = make_cluster()
    _wallet, miner = funded(nodes[0])
    block = miner.mine_and_connect(1.0)
    nodes[0].broadcast_block(block)
    sim.run()
    for gossip in nodes:
        assert gossip.node.chain.height == 1


def test_gossip_dedup_no_infinite_relay():
    sim, wan, nodes = make_cluster()
    _wallet, miner = funded(nodes[0])
    block = miner.mine_and_connect(1.0)
    nodes[0].broadcast_block(block)
    sim.run()
    # Full mesh of 3: origin sends 2, each receiver relays to 2 others
    # once; dedup stops it there.
    assert wan.messages_sent <= 8


def test_on_transaction_listener_fires_once():
    sim, _wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(3)]
    for gossip in nodes[1:]:
        for block in blocks:
            gossip.node.submit_block(block)
    seen = []
    nodes[1].on_transaction.append(lambda tx: seen.append(tx.txid))
    tx = wallet.create_payment(b"\x07" * 20, 100)
    nodes[0].broadcast_transaction(tx)
    sim.run()
    assert seen == [tx.txid]


def test_invalid_transaction_not_relayed():
    sim, wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    miner.mine_and_connect(1.0)
    # Node 1 never hears about the block, so node 0's tx is orphan there —
    # build an outright invalid tx instead: spend a nonexistent coin.
    from repro.blockchain.transaction import (OutPoint, Transaction,
                                              TxInput, TxOutput)
    from repro.script.script import Script
    bogus = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x01" * 32, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    before = wan.messages_sent
    nodes[1].receive_transaction(bogus, origin="n0")
    sim.run()
    assert wan.messages_sent == before  # nothing relayed


def test_connect_ignores_self_and_duplicates():
    _sim, _wan, nodes = make_cluster(2)
    nodes[0].connect("n0")
    nodes[0].connect("n1")
    assert nodes[0].peers.count("n1") == 1
    assert "n0" not in nodes[0].peers


# -- delivery verdicts and loss accounting ------------------------------------

def test_send_records_each_verdict_in_its_own_counter():
    sim, wan = make_wan()
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: None)
    assert wan.send("a", "b", "x") is None
    assert (wan.messages_sent, wan.messages_lost) == (1, 0)
    wan.send("a", "ghost", "x")
    assert wan.drops_unknown_destination == 1
    assert (wan.messages_sent, wan.messages_lost) == (2, 1)
    sim.run()
    assert wan.messages_delivered == 1


def test_unknown_destination_counted_separately_from_loss():
    sim, wan = make_wan(loss_rate=0.3)
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: None)
    wan.send("a", "ghost", "x")
    for _ in range(100):
        wan.send("a", "b", "x")
    sim.run()
    sampled = wan.drops_sampled_loss
    assert sampled > 0
    assert wan.drops_unknown_destination == 1
    assert wan.messages_delivered == 100 - sampled
    # The aggregate is still the sum of its parts.
    assert wan.messages_lost == (wan.drops_sampled_loss
                                 + wan.drops_unknown_destination
                                 + wan.drops_offline
                                 + wan.drops_injected)


def test_down_host_drops_at_delivery_time():
    sim, wan = make_wan()
    received = []
    wan.register("a", lambda env: None)
    wan.register("b", received.append)
    wan.set_host_down("b")
    wan.send("a", "b", "x")
    assert wan.messages_lost == 0  # the sender cannot know yet
    sim.run()
    assert received == []
    assert wan.drops_offline == 1
    wan.set_host_up("b")
    wan.send("a", "b", "y")
    sim.run()
    assert len(received) == 1


def test_interceptor_can_drop_delay_duplicate_and_corrupt():
    from repro.p2p.network import FaultDecision

    sim, wan = make_wan(delay=0.1)
    received = []
    wan.register("a", lambda env: None)
    wan.register("b", lambda env: received.append((sim.now, env.payload)))

    decisions = {
        "drop-me": FaultDecision(drop=True, reason="test"),
        "slow-me": FaultDecision(extra_delay=1.0),
        "copy-me": FaultDecision(duplicates=1),
        "garble-me": FaultDecision(replace_payload="garbled"),
    }
    wan.interceptor = lambda env: decisions.get(env.payload)

    wan.send("a", "b", "drop-me")
    assert wan.drops_injected == 1
    wan.send("a", "b", "slow-me")
    wan.send("a", "b", "copy-me")
    wan.send("a", "b", "garble-me")
    wan.send("a", "b", "normal")
    sim.run()
    payloads = sorted(p for _, p in received)
    assert payloads == ["copy-me", "copy-me", "garbled", "normal", "slow-me"]
    slow_at = [t for t, p in received if p == "slow-me"]
    assert slow_at == [1.1]  # latency + injected delay
    assert wan.drops_injected == 1
    assert wan.messages_duplicated == 1
    assert wan.messages_corrupted == 1


# -- orphan transaction recovery ----------------------------------------------

def chained_pair(wallet):
    """A parent payment and a child spending the parent's output."""
    from repro.blockchain.transaction import (
        OutPoint, Transaction, TxInput, TxOutput)
    from repro.script import builder

    parent = wallet.create_payment(wallet.pubkey_hash, 200)
    child = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid, index=0))],
        outputs=[TxOutput(
            value=200,
            script_pubkey=builder.p2pkh_locking(wallet.pubkey_hash))],
    )
    signature = wallet.sign_input(
        child, 0, builder.p2pkh_locking(wallet.pubkey_hash))
    child = child.with_input_script(
        0, builder.p2pkh_unlocking(signature, wallet.pubkey_bytes))
    return parent, child


def test_child_before_parent_is_parked_then_resolved():
    sim, _wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(2)]
    for gossip in nodes[1:]:
        for block in blocks:
            gossip.node.submit_block(block)
    parent, child = chained_pair(wallet)
    receiver = nodes[1]
    # Child arrives first: parked, not blackholed, not marked known.
    receiver.receive_transaction(child, origin="n0")
    assert child.txid not in receiver.node.mempool
    assert receiver.orphan_count == 1
    # Parent arrives: both enter the pool, orphan counter ticks.
    receiver.receive_transaction(parent, origin="n0")
    assert parent.txid in receiver.node.mempool
    assert child.txid in receiver.node.mempool
    assert receiver.orphan_count == 0
    assert receiver.orphans_resolved == 1


def test_resolved_orphan_is_relayed_onward():
    sim, wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(2)]
    for gossip in nodes[1:]:
        for block in blocks:
            gossip.node.submit_block(block)
    parent, child = chained_pair(wallet)
    nodes[1].receive_transaction(child, origin="zzz")
    nodes[1].receive_transaction(parent, origin="zzz")
    sim.run()
    # n2 heard both via relay from n1.
    assert parent.txid in nodes[2].node.mempool
    assert child.txid in nodes[2].node.mempool


def test_orphan_pool_is_bounded():
    sim, _wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(4)]
    for gossip in nodes[1:]:
        for block in blocks:
            gossip.node.submit_block(block)
    receiver = nodes[1]
    receiver.ORPHAN_POOL_SIZE = 2
    orphans = []
    for _ in range(3):
        parent, child = chained_pair(wallet)
        orphans.append(child)
        receiver.receive_transaction(child, origin="n0")
    assert receiver.orphan_count == 2
    assert receiver.orphans_evicted == 1


def test_invalid_transaction_still_permanently_rejected():
    """The orphan path must not weaken dedup for truly invalid txs."""
    sim, _wan, nodes = make_cluster()
    wallet, miner = funded(nodes[0])
    blocks = [miner.mine_and_connect(float(i)) for i in range(2)]
    for gossip in nodes[1:]:
        for block in blocks:
            gossip.node.submit_block(block)
    from repro.blockchain.transaction import (
        OutPoint, Transaction, TxInput, TxOutput)
    from repro.script import builder

    parent, child = chained_pair(wallet)
    receiver = nodes[1]
    receiver.receive_transaction(parent, origin="n0")
    receiver.receive_transaction(child, origin="n0")
    assert child.txid in receiver.node.mempool
    # A conflicting spend of the same parent output is permanently
    # invalid (double spend), so it is remembered — not parked.
    conflict = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid, index=0))],
        outputs=[TxOutput(
            value=150,
            script_pubkey=builder.p2pkh_locking(wallet.pubkey_hash))],
    )
    signature = wallet.sign_input(
        conflict, 0, builder.p2pkh_locking(wallet.pubkey_hash))
    conflict = conflict.with_input_script(
        0, builder.p2pkh_unlocking(signature, wallet.pubkey_bytes))
    receiver.receive_transaction(conflict, origin="n0")
    assert conflict.txid not in receiver.node.mempool
    assert receiver.orphan_count == 0
    assert conflict.txid in receiver._known_txids
    # The repeat is dropped before it even reaches validation.
    processed = receiver.node.transactions_processed
    receiver.receive_transaction(conflict, origin="n0")
    assert receiver.node.transactions_processed == processed


def test_dedup_caches_are_bounded_lru():
    sim, _wan, nodes = make_cluster()
    gossip = nodes[0]
    assert gossip._known_txids.maxsize == GossipNode.DEDUP_CACHE_SIZE
    assert gossip._known_blocks.maxsize == GossipNode.DEDUP_CACHE_SIZE
    small = GossipNode(FullNode(ChainParams(), "tiny"), _wan, name="tiny")
    small._known_txids = LRUSet(2)
    small._known_txids.add(b"a")
    small._known_txids.add(b"b")
    small._known_txids.add(b"c")
    assert small._known_txids.evictions == 1
    assert b"a" not in small._known_txids


def test_refund_gossiped_before_its_locktime_enters_the_pool_later():
    """Non-final is "not yet", not "never": the refund waits with the
    orphans and is admitted by the block that makes it final."""
    import random

    from repro.blockchain.mempool import REJECT_NON_FINAL
    from repro.crypto import rsa

    _sim, _wan, (a, b) = make_cluster(2)
    wallet, miner = funded(a)
    for i in range(4):
        b.node.submit_block(miner.mine_and_connect(float(i)))
    offer = wallet.create_key_release_offer(
        rsa.generate_keypair(512, random.Random(1)).public_key.to_bytes(),
        b"\x07" * 20, amount=500, refund_locktime=6)
    b.receive_transaction(offer.transaction, origin="n0")
    refund = wallet.refund_key_release(offer)
    assert (b.node.submit_transaction(refund).reason_code
            == REJECT_NON_FINAL)  # at height 4, the next block is 5
    b.receive_transaction(refund, origin="n0")
    assert refund.txid not in b.node.mempool
    assert refund.txid not in b._known_txids
    assert b.orphan_count == 1
    # Block 5 confirms the offer; at height 5 the refund is final.
    b.receive_block(miner.mine_and_connect(4.0), origin="n0")
    assert refund.txid in b.node.mempool
    assert b.orphan_count == 0
