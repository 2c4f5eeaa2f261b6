"""``FullNode.restart``: a node comes back in place from its store.

The store is replayed into the node's own chain, under the node's own
rules — its engine's leader rule and fresh checkpoint rules — so a store
holding a block those rules refuse does not restore.  What is built on
the node (here a listener and a miner) keeps following it.
"""

from __future__ import annotations

import io

import pytest

from repro.blockchain.checkpoint import (EMPTY_EPOCH_ROOT, CheckpointRules,
                                         build_checkpoint_payload)
from repro.blockchain.mempool import REJECT_CHECKPOINT
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.pos import StakeRegistry
from repro.blockchain.store import save_chain
from repro.chaos.verify import chain_digest, utxo_digest
from repro.crypto import ecdsa
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError


def _store(chain) -> str:
    buffer = io.StringIO()
    save_chain(chain, buffer)
    return buffer.getvalue()


def test_honest_store_restores_the_saved_digests(funded_chain, rng):
    node, wallet, miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 500)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(99.0)
    pending = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 700)
    assert node.submit_transaction(pending).accepted
    store = _store(node.chain)
    digests = (chain_digest(node.chain), utxo_digest(node.chain))
    chain, mempool, engine = node.chain, node.mempool, node.engine

    node.restart(store)
    assert node.chain is chain and node.mempool is mempool
    assert node.engine is engine
    assert (chain_digest(node.chain), utxo_digest(node.chain)) == digests
    assert len(node.mempool) == 0 and node.mempool.total_bytes == 0


def test_replay_is_silent_and_later_blocks_are_heard(funded_chain):
    node, _wallet, miner = funded_chain
    heard = []
    node.chain.add_connect_listener(lambda block, height: heard.append(height))
    store = _store(node.chain)
    node.restart(store)
    assert heard == []
    miner.mine_and_connect(50.0)
    assert heard == [node.chain.height]


def test_state_loss_returns_at_genesis_with_the_engine(funded_chain):
    node, _wallet, miner = funded_chain
    engine, memo = node.engine, node.engine.verdict_memo
    rule = node.engine.leader_rule = object()
    node.restart()
    assert node.height == 0 and len(node.chain.utxos) == 0
    assert node.engine is engine and engine.verdict_memo is memo
    assert engine.leader_rule is rule
    engine.leader_rule = None
    miner.mine_and_connect(50.0)
    assert node.height == 1


def test_store_with_an_unendorsed_block_is_refused(rng):
    registry = StakeRegistry(slot_duration=10.0)
    registry.register("alice", ecdsa.generate_private_key(rng).public_key, 1)
    registry.genesis_height = 1
    params = ChainParams()
    # A node without the leader rule takes blocks nobody endorsed.
    lax = FullNode(params, "lax")
    miner = Miner(chain=lax.chain, mempool=lax.mempool,
                  reward_pubkey_hash=b"\x00" * 20)
    miner.mine_and_connect(0.0)
    miner.mine_and_connect(15.0)

    node = FullNode(params, "pos")
    node.engine.leader_rule = registry
    with pytest.raises(ValidationError, match="lacks the endorsement"):
        node.restart(_store(lax.chain))


def test_store_with_a_stale_checkpoint_is_refused(funded_chain):
    node, wallet, miner = funded_chain

    def checkpoint(epoch):
        return wallet.create_announcement(build_checkpoint_payload(
            region_id=0, epoch=epoch, height=1, tip_hash=b"\x0a" * 32,
            settled_root=EMPTY_EPOCH_ROOT, tx_count=0))

    # No checkpoint rules yet: the repeated epoch is mined.
    for epoch, when in ((1, 10.0), (1, 20.0)):
        assert node.submit_transaction(checkpoint(epoch)).accepted
        miner.mine_and_connect(when)
    store = _store(node.chain)

    anchor = FullNode(node.params, "anchor")
    anchor.engine.checkpoint_rules = CheckpointRules()
    with pytest.raises(ValidationError, match="stale checkpoint"):
        anchor.restart(store)


def test_restart_rebuilds_checkpoint_rules_from_the_store(funded_chain):
    node, wallet, miner = funded_chain
    node.engine.checkpoint_rules = rules = CheckpointRules()
    for epoch, when in ((1, 10.0), (2, 20.0)):
        assert node.submit_transaction(wallet.create_announcement(
            build_checkpoint_payload(
                region_id=0, epoch=epoch, height=epoch, tip_hash=b"\x0a" * 32,
                settled_root=EMPTY_EPOCH_ROOT, tx_count=0))).accepted
        miner.mine_and_connect(when)
    node.restart(_store(node.chain))
    assert node.engine.checkpoint_rules is not rules
    stale = wallet.create_announcement(build_checkpoint_payload(
        region_id=0, epoch=2, height=2, tip_hash=b"\x0a" * 32,
        settled_root=EMPTY_EPOCH_ROOT, tx_count=0))
    verdict = node.mempool.accept(stale)
    assert not verdict.accepted and verdict.reason_code == REJECT_CHECKPOINT
