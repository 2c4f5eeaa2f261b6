"""Template standardness and the fast-reject in the validation pipeline.

A transaction that fits no template is turned away by the mempool
*without executing its scripts*; a spend whose text dooms it is
rejected by the engine without running the interpreter.  Both the
rejection and the skipped executions are visible in telemetry counters.
"""

from __future__ import annotations

import pytest

from repro.blockchain.checkpoint import build_checkpoint_payload
from repro.blockchain.mempool import REJECT_NONSTANDARD
from repro.blockchain.transaction import TxOutput
from repro.blockchain.utxo import UTXOEntry
from repro.blockchain.wallet import Wallet
from repro.core.directory import build_announcement_payload
from repro.crypto import rsa
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.analysis import StandardnessPolicy
from repro.script.builder import ephemeral_key_release, op_return, p2pkh_locking
from repro.script.opcodes import OP
from repro.script.script import Script, encode_number
from tests.oracles.fees import paying_fee


def unspendable_output_tx(wallet, value=5):
    """A correctly signed payment whose output is a constant-false lock."""
    return wallet._build_spend(
        [TxOutput(value=value, script_pubkey=Script((b"",)))])


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
        [TxOutput(value=7, script_pubkey=op_return(b"data"))])
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert "OP_RETURN" in result.reason


def test_mempool_accepts_zero_value_op_return(funded_chain):
    node, wallet, _miner = funded_chain
    with paying_fee(wallet, 1):
        announcement = wallet.create_announcement(b"gateway 10.0.0.1")
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


def test_unprovable_failure_pays_the_interpreter(funded_chain, rng):
    """A failure the text scan cannot prove (an underflow depends on what
    the unlocking script pushes) is the interpreter's to find."""
    node, wallet, _miner = funded_chain
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    engine = node.engine
    misses_before = engine.cache_stats.misses
    with pytest.raises(ValidationError, match="script verification failed"):
        engine.verify_input_scripts(tx, [bad_entry(Script((OP.OP_2DROP,)))])
    # Prechecked, not fast-rejected: the engine executed it to decide.
    assert engine.cache_stats.misses == misses_before + 1
    assert engine.policy.stats.fast_rejects == 0
    assert engine.policy.stats.spends_prechecked >= 1


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


# -- the template policy, as a table -------------------------------------------

def _listing1(operand: bytes) -> Script:
    """A Listing-1 offer script with its refund locktime operand replaced."""
    elements = list(ephemeral_key_release(b"\x01" * 64, b"\x11" * 20,
                                          b"\x22" * 20, 500).elements)
    elements[8] = operand
    return Script(elements)


def _cltv_guarded(operand: bytes) -> Script:
    return Script((operand, OP.OP_CHECKLOCKTIMEVERIFY, OP.OP_DROP)
                  + p2pkh_locking(b"\x11" * 20).elements)


def test_everything_the_wallets_and_producers_build_is_standard(
        funded_chain, rng):
    node, wallet, miner = funded_chain
    for i in range(3):  # one coin per built transaction
        miner.mine_and_connect(10.0 + i)
    gateway = Wallet(node.chain, KeyPair.generate(rng))
    ephemeral = rsa.generate_keypair(512, rng)
    claimed = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=100)
    refunded = wallet.create_key_release_offer(
        ephemeral.public_key.to_bytes(), gateway.pubkey_hash, amount=100,
        refund_locktime=node.chain.height + 1)
    checkpoint = build_checkpoint_payload(
        region_id=1, epoch=1, height=node.chain.height,
        tip_hash=node.chain.tip.hash, settled_root=b"\x00" * 32,
        tx_count=0)
    built = {
        "payment": wallet.create_payment(gateway.pubkey_hash, 100),
        "fan-out": wallet.create_fanout(gateway.pubkey_hash, 10, count=4),
        "announcement": wallet.create_announcement(
            build_announcement_payload(wallet.keypair, "10.0.0.1")),
        "Listing-1 offer": claimed.transaction,
        "claim": gateway.claim_key_release(claimed, ephemeral.to_bytes()),
        "refund": wallet.refund_key_release(refunded),
        "checkpoint carrier": wallet.create_announcement(checkpoint),
    }
    policy = StandardnessPolicy()
    for label, tx in built.items():
        assert policy.check_transaction(tx) is None, label
    assert policy.stats.tx_rejected == 0
    assert set(policy.stats.output_classes) == {"p2pkh", "op-return",
                                                "rsa-pair-locked"}
    # The minimal CLTV templates are standard too.
    for script in (_listing1(encode_number(500)),
                   _cltv_guarded(encode_number(500))):
        assert policy.check_output(1, script) is None, script.disassemble()


@pytest.mark.parametrize("refusal, expected", [
    ("non-template output", "non-standard output class"),
    ("value-bearing OP_RETURN", "OP_RETURN output burns"),
    ("non-push scriptSig", "not push-only"),
    ("high-S signature", "high-S"),
    ("negative Listing-1 locktime", "negative locktime"),
    ("non-minimal Listing-1 locktime", "not minimally encoded"),
    ("negative cltv-guarded locktime", "negative locktime"),
    ("non-minimal cltv-guarded locktime", "not minimally encoded"),
])
def test_each_template_refusal_keeps_its_reason(funded_chain, rng, refusal,
                                                expected):
    node, wallet, _miner = funded_chain
    payee = KeyPair.generate(rng).pubkey_hash
    outputs = {
        "non-template output": Script((OP.OP_ADD,)),
        "value-bearing OP_RETURN": op_return(b"data"),
        "negative Listing-1 locktime": _listing1(encode_number(-5)),
        "non-minimal Listing-1 locktime": _listing1(b"\x05\x00"),
        "negative cltv-guarded locktime": _cltv_guarded(encode_number(-5)),
        "non-minimal cltv-guarded locktime": _cltv_guarded(b"\x05\x00"),
    }
    if refusal in outputs:
        tx = wallet._build_spend(
            [TxOutput(value=5, script_pubkey=outputs[refusal])])
    elif refusal == "non-push scriptSig":
        tx = wallet.create_payment(payee, 100).with_input_script(
            0, Script((b"sig", OP.OP_DUP)))
    else:
        tx = _malleate_high_s(wallet.create_payment(payee, 100))
    misses_before = node.engine.cache_stats.misses
    result = node.mempool.accept(tx)
    assert not result.accepted
    assert result.reason_code == REJECT_NONSTANDARD
    assert expected in result.reason, result.reason
    assert node.engine.cache_stats.misses == misses_before
    assert node.engine.policy.stats.tx_rejected == 1
