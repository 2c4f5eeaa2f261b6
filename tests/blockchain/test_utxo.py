"""UTXO set semantics: apply, undo, error atomicity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.blockchain.utxo import UTXOEntry, UTXOSet, UTXOView
from repro.errors import ValidationError
from repro.script.script import Script, encode_number
from tests.oracles.utxo_reference import apply_transaction


def coinbase(height):
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height)]))],
        outputs=[TxOutput(value=50, script_pubkey=Script())],
    )


def spend(prev: Transaction, index=0, outputs=None):
    return Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=prev.txid, index=index))],
        outputs=outputs or [TxOutput(value=49, script_pubkey=Script())],
    )


def test_apply_coinbase_creates_outputs():
    utxos = UTXOSet()
    cb = coinbase(1)
    spent = apply_transaction(utxos, cb, height=1)
    assert spent == {}
    entry = utxos.get(OutPoint(txid=cb.txid, index=0))
    assert entry is not None
    assert entry.is_coinbase and entry.height == 1 and entry.value == 50


def test_apply_spend_moves_value():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    tx = spend(cb)
    spent = apply_transaction(utxos, tx, height=2)
    assert OutPoint(txid=cb.txid, index=0) in spent
    assert utxos.get(OutPoint(txid=cb.txid, index=0)) is None
    assert utxos.get(OutPoint(txid=tx.txid, index=0)) is not None


def test_apply_missing_input_rejected_atomically():
    utxos = UTXOSet()
    cb = coinbase(1)
    tx = spend(cb)  # cb never applied
    with pytest.raises(ValidationError):
        apply_transaction(utxos, tx, height=1)
    assert len(utxos) == 0


def test_undo_restores_exact_state():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    before = utxos.snapshot()
    tx = spend(cb)
    spent = apply_transaction(utxos, tx, height=2)
    utxos.undo_transaction(tx, spent)
    assert utxos.snapshot() == before


def test_remove_missing_raises():
    with pytest.raises(ValidationError):
        UTXOSet().remove(OutPoint(txid=b"\x01" * 32, index=0))


def test_duplicate_add_raises():
    utxos = UTXOSet()
    outpoint = OutPoint(txid=b"\x01" * 32, index=0)
    entry = UTXOEntry(output=TxOutput(value=1, script_pubkey=Script()),
                      height=0, is_coinbase=False)
    utxos.add(outpoint, entry)
    with pytest.raises(ValidationError):
        utxos.add(outpoint, entry)


def entry(value):
    return UTXOEntry(output=TxOutput(value=value, script_pubkey=Script()),
                     height=0, is_coinbase=False)


def outpoint(byte):
    return OutPoint(txid=bytes([byte]) * 32, index=0)


def test_apply_delta_checks_everything_before_it_writes():
    utxos = UTXOSet()
    old = {outpoint(1): entry(1), outpoint(2): entry(2)}
    for op, held in old.items():
        utxos.add(op, held)
    with pytest.raises(ValidationError, match=r"^missing UTXO: 0303"):
        utxos.apply_delta({outpoint(1), outpoint(3)},
                          {outpoint(4): entry(4)})
    with pytest.raises(ValidationError, match=r"^duplicate UTXO: 0202"):
        utxos.apply_delta({outpoint(1)},
                          {outpoint(4): entry(4), outpoint(2): entry(5)})
    assert utxos.snapshot() == old
    assert all(utxos.get(op) is held for op, held in old.items())


def test_apply_delta_replaces_an_outpoint_spent_and_added():
    utxos = UTXOSet()
    utxos.add(outpoint(1), entry(1))
    new = entry(7)
    utxos.apply_delta({outpoint(1)}, {outpoint(1): new, outpoint(2): new})
    assert utxos.get(outpoint(1)) is new and len(utxos) == 2


def test_creating_an_existing_output_raises_duplicate_on_view_and_set():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    for ledger in (UTXOView(utxos), utxos):
        with pytest.raises(ValidationError) as error:
            apply_transaction(ledger, cb, height=2)
        assert str(error.value) == (
            f"duplicate UTXO: {cb.txid.hex()[:16]}..:0")
    assert utxos.get(cb.outpoints[0]).height == 1


def test_undo_of_outputs_the_set_lacks_or_of_spends_it_holds_raises():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    tx = spend(cb)
    spent = apply_transaction(utxos, tx, height=2)
    utxos.undo_transaction(tx, spent)
    with pytest.raises(ValidationError) as error:
        utxos.undo_transaction(tx, spent)
    assert str(error.value) == f"missing UTXO: {tx.outpoints[0]}"
    apply_transaction(utxos, tx, height=2)
    utxos.add(cb.outpoints[0], spent[cb.outpoints[0]])
    with pytest.raises(ValidationError) as error:
        utxos.undo_transaction(tx, spent)
    assert str(error.value) == f"duplicate UTXO: {cb.outpoints[0]}"


def test_total_value():
    utxos = UTXOSet()
    apply_transaction(utxos, coinbase(1), height=1)
    apply_transaction(utxos, coinbase(2), height=2)
    assert utxos.total_value() == 100


def test_contains_and_len():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    assert OutPoint(txid=cb.txid, index=0) in utxos
    assert len(utxos) == 1


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=20)
def test_apply_undo_chain_property(depth):
    """Applying then undoing any chain of spends restores the start state."""
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    baseline = utxos.snapshot()

    history = []
    prev = cb
    for level in range(depth):
        tx = spend(prev, outputs=[TxOutput(value=50 - level - 1,
                                           script_pubkey=Script())])
        spent = apply_transaction(utxos, tx, height=2 + level)
        history.append((tx, spent))
        prev = tx

    for tx, spent in reversed(history):
        utxos.undo_transaction(tx, spent)
    assert utxos.snapshot() == baseline
