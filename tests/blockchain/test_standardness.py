"""Standardness policy and static fast-reject in the validation pipeline.

The acceptance property from the issue: a provably-unspendable or
non-standard transaction is turned away by the mempool *without
executing its scripts*, and both the rejection and the skipped
executions are visible in telemetry counters.
"""

from __future__ import annotations

import pytest

from repro.blockchain.engine import ValidationEngine
from repro.blockchain.mempool import REJECT_NONSTANDARD
from repro.blockchain.transaction import TxOutput
from repro.blockchain.utxo import UTXOEntry
from repro.errors import ValidationError
from repro.script.builder import op_return
from repro.script.opcodes import OP
from repro.script.script import Script


def unspendable_output_tx(wallet, value=5):
    """A correctly signed payment whose output is a constant-false lock."""
    return wallet._build_spend(
        [TxOutput(value=value, script_pubkey=Script((b"",)))], fee=0,
    )


# -- mempool standardness ------------------------------------------------------

def test_mempool_rejects_unspendable_output_without_execution(funded_chain):
    node, wallet, _miner = funded_chain
    engine = node.engine
    tx = unspendable_output_tx(wallet)
    misses_before = engine.cache_stats.misses
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert "not standard" in result.reason
    # The scripts were valid — rejection came from the static pre-pass,
    # before a single opcode ran.
    assert engine.cache_stats.misses == misses_before
    assert engine.policy.stats.tx_rejected == 1
    assert "unspendable" in engine.policy.stats.output_classes


def test_mempool_rejects_value_bearing_op_return(funded_chain):
    node, wallet, _miner = funded_chain
    tx = wallet._build_spend(
        [TxOutput(value=7, script_pubkey=op_return(b"data"))], fee=0,
    )
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert "OP_RETURN" in result.reason


def test_mempool_accepts_zero_value_op_return(funded_chain):
    node, wallet, _miner = funded_chain
    announcement = wallet.create_announcement(b"gateway 10.0.0.1", fee=1)
    assert node.mempool.accept(announcement).accepted
    assert announcement.txid in node.mempool


def test_mempool_rejects_non_push_unlocking_script(funded_chain, rng):
    node, wallet, _miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    tampered = tx.with_input_script(0, Script((b"sig", OP.OP_DUP)))
    result = node.mempool.accept(tampered)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert "push-only" in result.reason


def test_mempool_accepts_standard_payment_and_counts_it(funded_chain, rng):
    node, wallet, _miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    stats = node.engine.policy.stats
    assert stats.tx_checked >= 1
    assert stats.tx_rejected == 0
    assert stats.output_classes.get("p2pkh", 0) >= 1


# -- engine fast-reject --------------------------------------------------------

def bad_entry(script):
    return UTXOEntry(output=TxOutput(value=5, script_pubkey=script),
                     height=1, is_coinbase=False)


def test_engine_fast_rejects_provably_failing_spend(funded_chain, rng):
    node, wallet, _miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    engine = node.engine
    misses_before = engine.cache_stats.misses
    rejects_before = engine.policy.stats.fast_rejects
    with pytest.raises(ValidationError, match="fast-reject"):
        engine.verify_input_scripts(tx, [bad_entry(Script((OP.OP_IF,)))])
    # No interpreter run: the miss counter (== executions) is untouched.
    assert engine.cache_stats.misses == misses_before
    assert engine.policy.stats.fast_rejects == rejects_before + 1


def test_engine_fast_rejects_op_return_spend(funded_chain, rng):
    node, wallet, _miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    with pytest.raises(ValidationError, match="fast-reject"):
        node.engine.verify_input_scripts(tx, [bad_entry(op_return(b"x"))])


def test_precheck_disabled_pays_the_interpreter(funded_chain, rng):
    node, wallet, _miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    engine = ValidationEngine(node.params, static_precheck=False)
    with pytest.raises(ValidationError, match="script verification failed"):
        engine.verify_input_scripts(tx, [bad_entry(Script((OP.OP_2DROP,)))])
    # Same verdict, but this engine executed the script to reach it.
    assert engine.cache_stats.misses == 1
    assert engine.policy.stats.fast_rejects == 0


def test_precheck_never_blocks_valid_spends(funded_chain, rng):
    """End to end: standard traffic admits and mines exactly as before,
    with every precheck returning None."""
    node, wallet, miner = funded_chain
    from repro.crypto.keys import KeyPair
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.mempool.accept(tx).accepted
    miner.mine_and_connect(100.0)
    assert node.chain.utxos.get(tx.inputs[0].outpoint) is None
    assert node.engine.policy.stats.fast_rejects == 0
    assert node.engine.policy.stats.spends_prechecked >= 1


# -- telemetry -----------------------------------------------------------------

def test_validation_telemetry_snapshot(funded_chain):
    node, wallet, _miner = funded_chain
    tx = unspendable_output_tx(wallet)
    assert not node.mempool.accept(tx).accepted
    stats = node.engine.policy.stats
    assert stats.tx_rejected == 1
    assert stats.output_classes.get("unspendable") == 1


# -- high-S malleability (policy-only rejection) -------------------------------

def _malleate_high_s(tx):
    """Replace input 0's signature with its non-canonical high-S twin."""
    from repro.crypto.ecdsa import CURVE_ORDER, Signature
    sig_bytes, pubkey = tx.inputs[0].script_sig.elements
    sig = Signature.from_bytes(sig_bytes)
    twin = Signature(r=sig.r, s=CURVE_ORDER - sig.s)
    return tx.with_input_script(0, Script([twin.to_bytes(), pubkey]))


def test_mempool_rejects_high_s_signature(funded_chain):
    node, wallet, _miner = funded_chain
    tx = _malleate_high_s(wallet.create_payment(wallet.pubkey_hash, 50))
    misses_before = node.engine.cache_stats.misses
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert "high-S" in result.reason
    # Rejected by the static policy scan — no script executed.
    assert node.engine.cache_stats.misses == misses_before
    assert node.engine.policy.stats.tx_rejected == 1


def test_policy_reports_high_s_reason(funded_chain):
    node, wallet, _miner = funded_chain
    tx = _malleate_high_s(wallet.create_payment(wallet.pubkey_hash, 51))
    reason = node.engine.policy.check_transaction(tx)
    assert reason is not None and "high-S" in reason
    # The canonical original is clean.
    clean = wallet.create_payment(wallet.pubkey_hash, 52)
    assert node.engine.policy.check_transaction(clean) is None


def test_consensus_still_accepts_high_s_signature(funded_chain):
    """High-S is policy, not consensus: the same tx connects in a block."""
    from repro.blockchain.block import Block
    node, wallet, miner = funded_chain
    tx = _malleate_high_s(wallet.create_payment(wallet.pubkey_hash, 53))
    height = node.chain.height + 1
    block = Block.assemble(
        prev_hash=node.chain.tip.hash,
        timestamp=200.0,
        transactions=[miner.build_coinbase(height, 0), tx],
    )
    node.chain.add_block(block)
    assert node.chain.height == height
    assert node.chain.utxos.get(tx.inputs[0].outpoint) is None
