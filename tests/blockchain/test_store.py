"""Chain snapshots: save, load, tamper detection."""

from __future__ import annotations

import json

import pytest

from repro.blockchain.chain import Chain
from repro.blockchain.store import (
    deserialize_block,
    load_chain,
    save_chain,
    serialize_block,
)
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError


def test_block_roundtrip(funded_chain):
    node, _wallet, _miner = funded_chain
    block = node.chain.tip.block
    data = serialize_block(block)
    parsed = deserialize_block(data)
    assert parsed.hash == block.hash
    assert len(parsed.transactions) == len(block.transactions)


def test_block_deserialize_rejects_truncation(funded_chain):
    node, _wallet, _miner = funded_chain
    data = serialize_block(node.chain.tip.block)
    with pytest.raises(ValidationError):
        deserialize_block(data[:-3])


def test_block_deserialize_rejects_trailing(funded_chain):
    node, _wallet, _miner = funded_chain
    data = serialize_block(node.chain.tip.block)
    with pytest.raises(ValidationError):
        deserialize_block(data + b"\x00")


def test_save_load_roundtrip(funded_chain, tmp_path, rng):
    node, wallet, miner = funded_chain
    # Add a non-trivial block with a real payment.
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 500)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(99.0)

    path = tmp_path / "chain.jsonl"
    written = save_chain(node.chain, path)
    assert written == node.chain.height

    restored = Chain(node.params)
    load_chain(path, restored)
    assert restored.height == node.chain.height
    assert restored.tip.hash == node.chain.tip.hash
    assert restored.utxos.snapshot() == node.chain.utxos.snapshot()
    assert restored.confirmations(tx.txid) == 1


def test_load_validates_scripts(funded_chain, tmp_path, rng):
    node, wallet, miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 500)
    assert node.submit_transaction(tx).accepted
    miner.mine_and_connect(99.0)
    path = tmp_path / "chain.jsonl"
    save_chain(node.chain, path)
    restored = Chain(node.params, verify_scripts=True)
    load_chain(path, restored)
    assert restored.height == node.chain.height
    assert restored.engine.cache_stats.misses > 0


def test_tampered_snapshot_rejected(funded_chain, tmp_path):
    node, _wallet, _miner = funded_chain
    path = tmp_path / "chain.jsonl"
    save_chain(node.chain, path)
    lines = path.read_text().splitlines()
    entry = json.loads(lines[2])
    raw = bytearray(bytes.fromhex(entry["block"]))
    raw[-1] ^= 0xFF  # flip a byte inside the last transaction
    entry["block"] = bytes(raw).hex()
    lines[2] = json.dumps(entry)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        load_chain(path, Chain(node.params))


def test_truncated_snapshot_fails_tip_check(funded_chain, tmp_path):
    node, _wallet, _miner = funded_chain
    path = tmp_path / "chain.jsonl"
    save_chain(node.chain, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the tip block
    with pytest.raises(ValidationError):
        load_chain(path, Chain(node.params))


def test_empty_snapshot_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValidationError):
        load_chain(path, Chain())


def test_wrong_format_version_rejected(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text(json.dumps({"format": 99, "height": 0, "tip": ""}) + "\n")
    with pytest.raises(ValidationError):
        load_chain(path, Chain())
