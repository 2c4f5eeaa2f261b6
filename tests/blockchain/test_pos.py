"""Proof-of-stake slot lottery, endorsement and leader rule."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.blockchain.block import Block
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.pos import StakeRegistry, endorse, slot_of
from repro.blockchain.transaction import Transaction
from repro.crypto import ecdsa
from repro.crypto.hashing import hash160
from repro.errors import ConfigurationError, ValidationError
from repro.script.script import Script


@pytest.fixture
def registry(rng):
    registry = StakeRegistry(slot_duration=10.0)
    keys = {}
    for name, stake in (("alice", 50), ("bob", 30), ("carol", 20)):
        key = ecdsa.generate_private_key(rng)
        keys[name] = key
        registry.register(name, key.public_key, stake)
    return registry, keys


def test_slot_of():
    assert slot_of(0.0, 10.0) == 0
    assert slot_of(9.999, 10.0) == 0
    assert slot_of(10.0, 10.0) == 1
    with pytest.raises(ConfigurationError):
        slot_of(5.0, 0.0)


def test_registration_rules(registry, rng):
    reg, _keys = registry
    key = ecdsa.generate_private_key(rng)
    with pytest.raises(ConfigurationError):
        reg.register("alice", key.public_key, 10)  # duplicate
    with pytest.raises(ConfigurationError):
        reg.register("dave", key.public_key, 0)    # no stake
    assert reg.total_stake == 100


def test_leader_election_deterministic(registry):
    reg, _keys = registry
    for slot in range(20):
        assert reg.leader_for_slot(slot) == reg.leader_for_slot(slot)
    assert reg.leader_for_time(25.0) == reg.leader_for_slot(2)


def test_leader_share_tracks_stake(registry):
    reg, _keys = registry
    counts = Counter(reg.leader_for_slot(slot) for slot in range(3000))
    # Expected shares 50/30/20 (+/- sampling noise on a hash sequence).
    assert 0.44 < counts["alice"] / 3000 < 0.56
    assert 0.24 < counts["bob"] / 3000 < 0.36
    assert 0.14 < counts["carol"] / 3000 < 0.26


def test_empty_registry_cannot_elect():
    with pytest.raises(ConfigurationError):
        StakeRegistry().leader_for_slot(0)


def _leader_miner(node, keys, name):
    """A miner whose templates carry ``name``'s endorsement."""
    key = keys[name]
    return Miner(chain=node.chain, mempool=node.mempool,
                 reward_pubkey_hash=hash160(key.public_key.to_bytes()),
                 endorsing_key=key)


def _pos_node(reg):
    node = FullNode(ChainParams(), "pos")
    node.engine.leader_rule = reg
    return node


def test_endorsement_verification(registry):
    reg, keys = registry
    node = _pos_node(reg)
    slot = next(s for s in range(100) if reg.leader_for_slot(s) == "alice")
    timestamp = slot * reg.slot_duration + 1.0
    block = _leader_miner(node, keys, "alice").build_template(timestamp)
    # The endorsement is the coinbase scriptSig's last push: a 64-byte
    # signature over the hash of the block without it.
    pushes = list(block.coinbase.inputs[0].script_sig.elements)
    unendorsed = Miner(chain=node.chain, mempool=node.mempool,
                       reward_pubkey_hash=block.coinbase.outputs[0]
                       .script_pubkey.elements[2]).build_template(timestamp)
    assert len(pushes) == 2 and len(pushes[1]) == 64
    assert keys["alice"].public_key.verify(
        unendorsed.hash, ecdsa.Signature.from_bytes(pushes[1]))
    reg.check(block, 1)
    # The wrong signer, a tampered signature, no signature, the same
    # signature re-encoded high-S (s -> n - s, valid but non-canonical),
    # or the endorsed block re-stamped (a header field the signature
    # covers) all fail the rule.
    for forged in (
        endorse(unendorsed, keys["bob"]),
        _with_last_push(block, b"\x01" * 64),
        _with_last_push(block, _high_s(pushes[1])),
        unendorsed,
        Block.assemble(block.header.prev_hash, timestamp + 0.5,
                       block.transactions),
    ):
        with pytest.raises(ValidationError):
            reg.check(forged, 1)
    node.chain.add_block(block)
    assert node.chain.tip.hash == block.hash


def _high_s(signature_bytes):
    signature = ecdsa.Signature.from_bytes(signature_bytes)
    flipped = ecdsa.Signature(signature.r, ecdsa.CURVE_ORDER - signature.s)
    assert not flipped.is_low_s
    return flipped.to_bytes()


def test_genesis_era_is_exempt_by_height_not_timestamp(registry):
    """Blocks up to ``genesis_height`` pass unendorsed; above it even a
    block stamped 0 needs its slot leader's endorsement."""
    reg, keys = registry
    reg.genesis_height = 2
    node = _pos_node(reg)
    bootstrap = Miner(chain=node.chain, mempool=node.mempool,
                      reward_pubkey_hash=b"\x00" * 20)
    bootstrap.mine_and_connect(0.0)
    bootstrap.mine_and_connect(0.0)
    with pytest.raises(ValidationError):
        node.chain.add_block(bootstrap.build_template(0.0))
    assert node.chain.height == 2
    _leader_miner(node, keys, reg.leader_for_slot(0)).mine_and_connect(0.0)
    assert node.chain.height == 3


def _with_last_push(block, push):
    coinbase = block.coinbase
    pushes = list(coinbase.inputs[0].script_sig.elements)[:-1] + [push]
    rewritten = Transaction(
        inputs=[replace(coinbase.inputs[0], script_sig=Script(pushes))],
        outputs=coinbase.outputs)
    return Block.assemble(block.header.prev_hash, block.header.timestamp,
                          [rewritten, *block.transactions[1:]])


def test_non_leader_does_not_produce(registry):
    """A block its slot's leader did not endorse never enters the chain."""
    reg, keys = registry
    node = _pos_node(reg)
    slot = next(s for s in range(100) if reg.leader_for_slot(s) == "alice")
    block = _leader_miner(node, keys, "bob").build_template(
        slot * reg.slot_duration + 1.0)
    with pytest.raises(ValidationError):
        node.chain.add_block(block)
    assert node.chain.height == 0


def test_producer_requires_stake(registry, rng):
    """A key without stake never leads, so its blocks never connect."""
    reg, keys = registry
    node = _pos_node(reg)
    keys = {**keys, "mallory": ecdsa.generate_private_key(rng)}
    miner = _leader_miner(node, keys, "mallory")
    for slot in range(1, 6):
        with pytest.raises(ValidationError):
            node.chain.add_block(
                miner.build_template(slot * reg.slot_duration + 0.5))
    with pytest.raises(ConfigurationError):
        reg.register("mallory", keys["mallory"].public_key, 0)


def test_pos_chain_grows_round_robin(registry):
    """Each slot's leader extends the chain, no PoW anywhere."""
    reg, keys = registry
    node = _pos_node(reg)
    miners = {name: _leader_miner(node, keys, name) for name in keys}
    produced_by = Counter()
    for slot in range(1, 13):
        timestamp = slot * reg.slot_duration + 0.5
        leader = reg.leader_for_time(timestamp)
        for name, miner in miners.items():
            if name != leader:
                with pytest.raises(ValidationError):
                    node.chain.add_block(miner.build_template(timestamp))
        miners[leader].mine_and_connect(timestamp)
        produced_by[leader] += 1
    assert node.chain.height == 12
    assert sum(produced_by.values()) == 12
