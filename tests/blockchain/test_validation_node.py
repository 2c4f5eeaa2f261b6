"""Validation rules and the assembled full node."""

from __future__ import annotations

import pytest

from repro.blockchain.block import Block
from repro.blockchain.engine import ValidationEngine
from repro.blockchain.node import FullNode
from repro.blockchain.params import ChainParams
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.wallet import Wallet
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.fees import paying_fee


def make_coinbase(height, value=50):
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height)]))],
        outputs=[TxOutput(value=value,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )


# -- transaction syntax --------------------------------------------------------

def test_duplicate_inputs_rejected():
    outpoint = OutPoint(txid=b"\x01" * 32, index=0)
    tx = Transaction(
        inputs=[TxInput(outpoint=outpoint), TxInput(outpoint=outpoint)],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    with pytest.raises(ValidationError):
        ValidationEngine(ChainParams()).check_transaction_syntax(tx)


def test_null_input_in_regular_tx_rejected():
    tx = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT),
                TxInput(outpoint=OutPoint(txid=b"\x01" * 32, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    with pytest.raises(ValidationError):
        ValidationEngine(ChainParams()).check_transaction_syntax(tx)


def test_oversized_value_rejected():
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x01" * 32, index=0))],
        outputs=[TxOutput(value=22_000_000 * 100_000_000,
                          script_pubkey=Script())],
    )
    with pytest.raises(ValidationError):
        ValidationEngine(ChainParams()).check_transaction_syntax(tx)


def test_fee_computation(funded_chain, rng):
    node, wallet, _miner = funded_chain
    with paying_fee(wallet, 777):
        tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    fee = ValidationEngine(node.params)._check_resolved_inputs(
        tx, [node.chain.utxos.get(tx_input.outpoint)
             for tx_input in tx.inputs],
        node.chain.height + 1,
    )
    assert fee == 777


def test_script_verification_catches_forgery(funded_chain, rng):
    node, wallet, _miner = funded_chain
    thief = KeyPair.generate(rng)
    tx = wallet.create_payment(thief.pubkey_hash, 100)
    forged = tx.with_input_script(
        0, Script([b"\x01" * 64, thief.public_key.to_bytes()]),
    )
    with pytest.raises(ValidationError):
        ValidationEngine(node.params).verify_input_scripts(
            forged, [node.chain.utxos.get(tx_input.outpoint)
                     for tx_input in forged.inputs])


# -- block checks -----------------------------------------------------------------

def test_block_must_start_with_coinbase():
    params = ChainParams()
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x01" * 32, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    block = Block.assemble(prev_hash=b"\x00" * 32, timestamp=0.0,
                           transactions=[tx])
    with pytest.raises(ValidationError):
        ValidationEngine(params).check_block(block, prev_height=0)


def test_block_rejects_second_coinbase():
    params = ChainParams()
    block = Block.assemble(
        prev_hash=b"\x00" * 32, timestamp=0.0,
        transactions=[make_coinbase(1), make_coinbase(1, value=49)],
    )
    with pytest.raises(ValidationError):
        ValidationEngine(params).check_block(block, prev_height=0)


def test_block_rejects_merkle_mismatch():
    params = ChainParams()
    good = Block.assemble(prev_hash=b"\x00" * 32, timestamp=0.0,
                          transactions=[make_coinbase(1)])
    tampered = Block(header=good.header,
                     transactions=[make_coinbase(1, value=49)])
    with pytest.raises(ValidationError):
        ValidationEngine(params).check_block(tampered, prev_height=0)


def test_block_rejects_oversize():
    params = ChainParams(max_block_size=1000)
    big_push = Script([b"\x00" * 500, b"\x00" * 500])
    coinbase = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT, script_sig=big_push)],
        outputs=[TxOutput(value=50, script_pubkey=Script())],
    )
    block = Block.assemble(prev_hash=b"\x00" * 32, timestamp=0.0,
                           transactions=[coinbase])
    with pytest.raises(ValidationError):
        ValidationEngine(params).check_block(block, prev_height=0)


def test_connect_block_rolls_back_on_failure(funded_chain, rng):
    node, wallet, _miner = funded_chain
    good = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    bogus = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x0c" * 32, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    height = node.chain.height + 1
    block = Block.assemble(
        prev_hash=node.chain.tip.hash, timestamp=99.0,
        transactions=[make_coinbase(height), good, bogus],
    )
    before = node.chain.utxos.snapshot()
    with pytest.raises(ValidationError):
        ValidationEngine(node.params).connect_block(
            block, node.chain.utxos, height,
        )
    assert node.chain.utxos.snapshot() == before


# -- full node --------------------------------------------------------------------

def test_node_accepts_and_relays_new_tx(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    decision = node.submit_transaction(tx)
    assert decision.accepted and decision.txid == tx.txid


def test_node_rejects_known_tx(funded_chain, rng):
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    node.submit_transaction(tx)
    decision = node.submit_transaction(tx)
    assert not decision.accepted
    assert "already" in decision.reason


def test_node_rejects_confirmed_tx(funded_chain, rng):
    node, wallet, miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    node.submit_transaction(tx)
    miner.mine_and_connect(100.0)
    decision = node.submit_transaction(tx)
    assert not decision.accepted


def test_node_block_flow(funded_chain):
    node, _wallet, miner = funded_chain
    block = miner.mine(200.0)
    assert node.submit_block(block).status == "active"
    assert node.submit_block(block).status == "duplicate"


def test_node_rejects_invalid_block(funded_chain):
    node, _wallet, _miner = funded_chain
    height = node.chain.height + 1
    greedy = make_coinbase(height, value=10**12)
    block = Block.assemble(prev_hash=node.chain.tip.hash, timestamp=5.0,
                           transactions=[greedy])
    result = node.submit_block(block)
    assert result.status == "invalid" and "coinbase claims" in result.reason


def test_reorg_resurrects_a_child_after_its_parent(funded_chain, rng):
    """A reorg offers disconnected transactions oldest block first, so a
    transaction spending one from an earlier disconnected block finds
    its parent back in the pool."""
    node, wallet, miner = funded_chain
    fork, fork_height = node.chain.tip.hash, node.chain.height
    bob = Wallet(node.chain, KeyPair.generate(rng))
    bob.watch_chain()
    parent = wallet.create_payment(bob.pubkey_hash, 1_000)
    assert node.submit_transaction(parent).accepted
    assert node.submit_block(miner.mine(10.0)).status == "active"
    child = bob.create_payment(KeyPair.generate(rng).pubkey_hash, 500)
    assert child.inputs[0].outpoint == OutPoint(parent.txid, 0)
    assert node.submit_transaction(child).accepted
    assert node.submit_block(miner.mine(11.0)).status == "active"
    assert node.mempool.get(parent.txid) is None
    assert node.mempool.get(child.txid) is None

    prev = fork
    for height in range(fork_height + 1, fork_height + 4):
        rival = Block.assemble(prev_hash=prev, timestamp=20.0 + height,
                               transactions=[make_coinbase(height)])
        result = node.submit_block(rival)
        prev = rival.hash
    assert result.status == "active" and len(result.disconnected) == 2
    assert node.mempool.get(parent.txid) is parent
    assert node.mempool.get(child.txid) is child
