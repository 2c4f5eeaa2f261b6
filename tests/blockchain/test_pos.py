"""Proof-of-stake slot lottery and block production."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.blockchain.mempool import Mempool
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.pos import PoSProducer, StakeRegistry, slot_of
from repro.blockchain.wallet import Wallet
from repro.crypto import ecdsa
from repro.crypto.keys import KeyPair
from repro.errors import ConfigurationError, ValidationError


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


def test_endorsement_verification(registry, rng):
    reg, keys = registry
    params = ChainParams(pow_bits=0)
    node = FullNode(params, "pos")
    wallet = Wallet(node.chain, KeyPair.generate(rng))

    # Find a slot alice leads and produce there.
    slot = next(s for s in range(100) if reg.leader_for_slot(s) == "alice")
    producer = PoSProducer(
        name="alice", registry=reg, chain=node.chain, mempool=node.mempool,
        private_key=keys["alice"], reward_pubkey_hash=wallet.pubkey_hash,
    )
    timestamp = slot * reg.slot_duration + 1.0
    produced = producer.try_produce(timestamp)
    assert produced is not None
    block, signature = produced
    assert reg.verify_block_signature(block, "alice", signature)
    # Wrong producer name or tampered signature fails.
    assert not reg.verify_block_signature(block, "bob", signature)
    assert not reg.verify_block_signature(block, "alice", b"\x00" * 64)


def test_non_leader_does_not_produce(registry, rng):
    reg, keys = registry
    params = ChainParams(pow_bits=0)
    node = FullNode(params, "pos")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    slot = next(s for s in range(100) if reg.leader_for_slot(s) == "alice")
    bob = PoSProducer(
        name="bob", registry=reg, chain=node.chain, mempool=node.mempool,
        private_key=keys["bob"], reward_pubkey_hash=wallet.pubkey_hash,
    )
    assert bob.try_produce(slot * reg.slot_duration + 1.0) is None
    assert node.chain.height == 0


def test_producer_requires_stake(registry, rng):
    reg, _keys = registry
    params = ChainParams(pow_bits=0)
    node = FullNode(params, "pos")
    with pytest.raises(ConfigurationError):
        PoSProducer(
            name="mallory", registry=reg, chain=node.chain,
            mempool=node.mempool,
            private_key=ecdsa.generate_private_key(rng),
            reward_pubkey_hash=b"\x01" * 20,
        )


def test_pos_chain_grows_round_robin(registry, rng):
    """All three producers together fill every slot, no PoW anywhere."""
    reg, keys = registry
    params = ChainParams(pow_bits=0)
    node = FullNode(params, "pos")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    producers = [
        PoSProducer(name=name, registry=reg, chain=node.chain,
                    mempool=node.mempool, private_key=keys[name],
                    reward_pubkey_hash=wallet.pubkey_hash)
        for name in sorted(keys)
    ]
    produced_by = Counter()
    for slot in range(12):
        timestamp = slot * reg.slot_duration + 0.5
        outputs = [p.try_produce(timestamp) for p in producers]
        winners = [p.name for p, out in zip(producers, outputs)
                   if out is not None]
        assert len(winners) == 1  # exactly one leader per slot
        produced_by[winners[0]] += 1
    assert node.chain.height == 12
    assert sum(produced_by.values()) == 12
