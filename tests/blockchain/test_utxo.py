"""UTXO set semantics: apply, block deltas and their revert, error
atomicity."""

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


def committed(utxos, *txs, height):
    """Apply ``txs`` through one view; returns the delta its commit wrote."""
    view = UTXOView(utxos)
    for tx in txs:
        apply_transaction(view, tx, height)
    return view.commit()


def test_undo_restores_exact_state():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    before = list(utxos.items())
    tx = spend(cb)
    spent, added = committed(utxos, tx, height=2)
    assert spent == {cb.outpoints[0]: before[0][1]}
    assert list(added) == list(tx.outpoints)
    utxos.revert_delta(spent, added)
    assert list(utxos.items()) == before


def test_revert_takes_back_what_the_set_holds_of_the_created_outputs():
    """A revert is handed every output the delta's transactions created.
    It returns the entries the set holds, and refuses an absent one that
    the delta's own inputs did not spend, before it writes."""
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    before = list(utxos.items())
    tx = spend(cb)
    chained = spend(tx)
    spent, added = committed(utxos, tx, chained, height=2)
    created = [*tx.outpoints, *chained.outpoints]
    after = list(utxos.items())
    with pytest.raises(ValidationError) as error:
        utxos.revert_delta(spent, created)
    assert str(error.value) == f"missing UTXO: {tx.outpoints[0]}"
    assert list(utxos.items()) == after
    consumed = [tx.inputs[0].outpoint, chained.inputs[0].outpoint]
    assert utxos.revert_delta(spent, created, consumed) == added
    assert list(utxos.items()) == before


def test_remove_missing_raises():
    with pytest.raises(ValidationError):
        UTXOSet().apply_delta({OutPoint(txid=b"\x01" * 32, index=0): None},
                              {})


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
        utxos.apply_delta({outpoint(1): old[outpoint(1)],
                           outpoint(3): entry(3)},
                          {outpoint(4): entry(4)})
    with pytest.raises(ValidationError, match=r"^duplicate UTXO: 0202"):
        utxos.apply_delta({outpoint(1): old[outpoint(1)]},
                          {outpoint(4): entry(4), outpoint(2): entry(5)})
    assert dict(utxos.items()) == old
    assert all(utxos.get(op) is held for op, held in old.items())


def test_apply_delta_replaces_an_outpoint_spent_and_added():
    utxos = UTXOSet()
    held = entry(1)
    utxos.add(outpoint(1), held)
    new = entry(7)
    spent, added = {outpoint(1): held}, {outpoint(1): new, outpoint(2): new}
    utxos.apply_delta(spent, added)
    assert utxos.get(outpoint(1)) is new and len(utxos) == 2
    utxos.revert_delta(spent, added)
    assert list(utxos.items()) == [(outpoint(1), held)]


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
    """A revert checks before it writes, as ``apply_delta`` does."""
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    tx = spend(cb)
    spent, added = committed(utxos, tx, height=2)
    utxos.revert_delta(spent, added)
    before = list(utxos.items())
    with pytest.raises(ValidationError) as error:
        utxos.revert_delta(spent, added)
    assert str(error.value) == f"missing UTXO: {tx.outpoints[0]}"
    assert list(utxos.items()) == before
    utxos.apply_delta(spent, added)
    utxos.add(cb.outpoints[0], spent[cb.outpoints[0]])
    before = list(utxos.items())
    with pytest.raises(ValidationError) as error:
        utxos.revert_delta(spent, added)
    assert str(error.value) == f"duplicate UTXO: {cb.outpoints[0]}"
    assert list(utxos.items()) == before


def test_total_value():
    utxos = UTXOSet()
    apply_transaction(utxos, coinbase(1), height=1)
    apply_transaction(utxos, coinbase(2), height=2)
    assert utxos.total_value() == 100


def test_contains_and_len():
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    assert utxos.get(OutPoint(txid=cb.txid, index=0)) is not None
    assert len(utxos) == 1


@given(st.integers(min_value=1, max_value=6), st.integers(1, 3))
@settings(max_examples=20)
def test_apply_undo_chain_property(depth, per_view):
    """Committing any chain of spends, ``per_view`` to a view, then
    reverting the deltas newest first restores the start state, order
    and entry objects included."""
    utxos = UTXOSet()
    cb = coinbase(1)
    apply_transaction(utxos, cb, height=1)
    baseline = list(utxos.items())

    txs = []
    prev = cb
    for level in range(depth):
        prev = spend(prev, outputs=[TxOutput(value=50 - level - 1,
                                             script_pubkey=Script())])
        txs.append(prev)
    deltas = [committed(utxos, *txs[start:start + per_view], height=2)
              for start in range(0, depth, per_view)]

    for delta in reversed(deltas):
        utxos.revert_delta(*delta)
    after = list(utxos.items())
    assert after == baseline and after[0][1] is baseline[0][1]
