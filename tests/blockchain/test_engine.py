"""The staged ValidationEngine: caching, overlays, and edge cases."""

from __future__ import annotations

import pytest

from repro.blockchain.block import Block
from repro.blockchain.engine import MAX_MONEY, ValidationEngine
from repro.blockchain.miner import Miner
from repro.blockchain.node import FullNode
from repro.blockchain.params import COINBASE_REWARD, ChainParams
from repro.blockchain.sigbatch import ECDSA, SCRIPT, VerdictMemo
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.blockchain.wallet import Wallet
from repro.crypto.keys import KeyPair
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script, encode_number
from tests.oracles.fees import paying_fee
from tests.oracles.utxo_reference import apply_transaction


def make_coinbase(height, value=50):
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height)]))],
        outputs=[TxOutput(value=value,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
    )


@pytest.fixture
def verifying_node(rng):
    """A script-verifying node with a funded wallet (Fig. 6 regime)."""
    params = ChainParams(coinbase_maturity=1, verify_blocks=True)
    node = FullNode(params, "verify-node")
    wallet = Wallet(node.chain, KeyPair.generate(rng))
    wallet.watch_chain()
    miner = Miner(chain=node.chain, mempool=node.mempool,
                  reward_pubkey_hash=wallet.pubkey_hash)
    for i in range(5):
        miner.mine_and_connect(float(i))
    return node, wallet, miner


# -- syntax stage edge cases ---------------------------------------------------

def test_engine_rejects_duplicate_inputs():
    engine = ValidationEngine(ChainParams())
    outpoint = OutPoint(txid=b"\x01" * 32, index=0)
    tx = Transaction(
        inputs=[TxInput(outpoint=outpoint), TxInput(outpoint=outpoint)],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    with pytest.raises(ValidationError, match="duplicate input"):
        engine.check_transaction_syntax(tx)


def test_engine_rejects_accumulated_overflow():
    """Each output below MAX_MONEY, but the running total above it."""
    engine = ValidationEngine(ChainParams())
    half = MAX_MONEY // 2 + 1
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=b"\x01" * 32, index=0))],
        outputs=[TxOutput(value=half, script_pubkey=Script()),
                 TxOutput(value=half, script_pubkey=Script())],
    )
    with pytest.raises(ValidationError, match="total output value"):
        engine.check_transaction_syntax(tx)


# -- contextual stage edge cases -----------------------------------------------

def test_coinbase_maturity_exact_boundary():
    """Spending at exactly entry.height + maturity succeeds; one block
    earlier fails."""
    maturity = 10
    engine = ValidationEngine(ChainParams(coinbase_maturity=maturity))
    utxos = UTXOSet()
    outpoint = OutPoint(txid=b"\x02" * 32, index=0)
    utxos.add(outpoint, UTXOEntry(
        output=TxOutput(value=50, script_pubkey=Script()),
        height=100, is_coinbase=True,
    ))
    spend = Transaction(
        inputs=[TxInput(outpoint=outpoint)],
        outputs=[TxOutput(value=50, script_pubkey=Script())],
    )
    entries = [utxos.get(outpoint)]
    with pytest.raises(ValidationError, match="matures at"):
        engine._check_resolved_inputs(spend, entries, 100 + maturity - 1)
    assert engine._check_resolved_inputs(spend, entries,
                                         100 + maturity) == 0


# -- script verdicts ------------------------------------------------------------

def verify_scripts(engine, tx, utxos):
    """Every input of ``tx`` against its entry in ``utxos``."""
    return engine.verify_input_scripts(
        tx, [utxos.get(tx_input.outpoint) for tx_input in tx.inputs])


def test_same_tx_validated_twice_executes_once(funded_chain, rng):
    node, wallet, _miner = funded_chain
    engine = node.engine
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    wallet.release_pending(tx)

    before = engine.cache_stats.snapshot()
    verify_scripts(engine, tx, node.chain.utxos)
    after_first = engine.cache_stats.snapshot()
    assert after_first.misses - before.misses == len(tx.inputs)
    assert after_first.hits == before.hits

    verify_scripts(engine, tx, node.chain.utxos)
    after_second = engine.cache_stats.snapshot()
    assert after_second.misses == after_first.misses  # zero new executions
    assert after_second.hits - after_first.hits == len(tx.inputs)


def test_script_failures_are_not_cached(funded_chain, rng):
    node, wallet, _miner = funded_chain
    engine = node.engine
    thief = KeyPair.generate(rng)
    tx = wallet.create_payment(thief.pubkey_hash, 100)
    forged = tx.with_input_script(
        0, Script([b"\x01" * 64, thief.public_key.to_bytes()]),
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match="script verification"):
            verify_scripts(engine, forged, node.chain.utxos)
    assert engine.cache_stats.hits == 0  # a failure never becomes a hit


def test_cache_eviction_is_bounded(funded_chain, rng):
    """Script verdicts share the verdict memo's bound with signatures."""
    node, wallet, _miner = funded_chain
    engine = ValidationEngine(node.params)
    engine.verdict_memo = memo = VerdictMemo()
    memo.MAX_ENTRIES = 1
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    wallet.release_pending(tx)
    tx2 = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    wallet.release_pending(tx2)
    verify_scripts(engine, tx, node.chain.utxos)
    verify_scripts(engine, tx2, node.chain.utxos)
    assert len(memo) <= 1
    assert memo.evictions[SCRIPT] >= 1 and memo.evictions[ECDSA] >= 1


# -- the acceptance criterion: admission → connect with zero executions --------

def test_block_connect_reuses_mempool_verdicts(verifying_node, rng):
    node, wallet, miner = verifying_node
    engine = node.engine
    for _ in range(3):
        tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
        assert node.submit_transaction(tx).accepted

    misses_after_admission = engine.cache_stats.misses
    assert misses_after_admission >= 3  # admission executed the scripts
    hits_after_admission = engine.cache_stats.hits

    block = miner.mine(100.0)
    result = node.submit_block(block)
    assert result.status == "active"

    assert engine.verify_scripts
    # Every verdict came from cache: no execution, a hit per input.
    assert engine.cache_stats.misses == misses_after_admission
    assert engine.cache_stats.hits - hits_after_admission >= 3


def test_unseen_block_still_executes_scripts(verifying_node, rng):
    """A block from a peer whose txs never hit our mempool pays full price."""
    node, wallet, miner = verifying_node
    tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.submit_transaction(tx).accepted
    block = miner.mine(100.0)

    other = FullNode(node.params, "cold")
    for _height, past in node.chain.iter_active_blocks(1):
        if past.hash != block.hash:
            other.submit_block(past)
    before = other.engine.cache_stats.snapshot()
    assert other.submit_block(block).status == "active"
    after = other.engine.cache_stats
    assert after.misses - before.misses == len(tx.inputs)
    assert after.hits == before.hits


# -- overlay semantics ---------------------------------------------------------

def test_failed_connect_leaves_base_untouched_without_undo(
        funded_chain, rng, monkeypatch):
    """A bad block discards its overlay; the undo path never runs."""
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

    undo_calls = []
    original_undo = UTXOSet.revert_delta

    def counting_undo(self, spent, added):
        undo_calls.append(len(added))
        return original_undo(self, spent, added)

    monkeypatch.setattr(UTXOSet, "revert_delta", counting_undo)
    before = node.chain.utxos.snapshot()
    with pytest.raises(ValidationError):
        node.engine.connect_block(block, node.chain.utxos, height)
    assert node.chain.utxos.snapshot() == before
    assert undo_calls == []


def test_overlay_view_isolation():
    base = UTXOSet()
    funding = OutPoint(txid=b"\x03" * 32, index=0)
    entry = UTXOEntry(output=TxOutput(value=7, script_pubkey=Script()),
                      height=1, is_coinbase=False)
    base.add(funding, entry)
    spend = Transaction(
        inputs=[TxInput(outpoint=funding)],
        outputs=[TxOutput(value=7, script_pubkey=Script())],
    )
    fresh = OutPoint(txid=spend.txid, index=0)

    view = UTXOView(base)
    assert view.get(funding) == entry
    apply_transaction(view, spend, 2)
    assert view.get(funding) is None
    assert base.get(funding) == entry  # base untouched until commit
    assert view.get(fresh) is not None and base.get(fresh) is None

    view.commit()
    assert base.get(funding) is None
    assert base.get(fresh) == UTXOEntry(spend.outputs[0], 2, False)


def test_overlay_chained_spend_never_touches_base():
    """An output created and spent inside one overlay leaves no trace."""
    base = UTXOSet()
    funding = OutPoint(txid=b"\x05" * 32, index=0)
    base.add(funding, UTXOEntry(
        output=TxOutput(value=10, script_pubkey=Script()),
        height=1, is_coinbase=False,
    ))
    parent = Transaction(
        inputs=[TxInput(outpoint=funding)],
        outputs=[TxOutput(value=10, script_pubkey=Script())],
    )
    child = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=parent.txid, index=0))],
        outputs=[TxOutput(value=10, script_pubkey=Script())],
    )
    view = UTXOView(base)
    apply_transaction(view, parent, 2)
    apply_transaction(view, child, 2)
    assert view.get(OutPoint(txid=parent.txid, index=0)) is None
    view.commit()
    assert base.get(OutPoint(txid=parent.txid, index=0)) is None
    assert base.get(funding) is None
    assert base.get(OutPoint(txid=child.txid, index=0)) is not None


def test_miner_template_fees_match_connected_fees(funded_chain, rng):
    node, wallet, miner = funded_chain
    with paying_fee(wallet, 321):
        tx = wallet.create_payment(KeyPair.generate(rng).pubkey_hash, 100)
    assert node.submit_transaction(tx).accepted
    block = miner.mine(60.0)
    assert block.coinbase.total_output_value == (
        COINBASE_REWARD + 321
    )
    assert node.submit_block(block).status == "active"
    assert node.chain.last_report.total_fees == 321
