"""Transaction wire format, txids, sighashes, finality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    SEQUENCE_FINAL,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    _read_varint,
    _write_varint,
)
from repro.errors import ValidationError
from repro.script.builder import p2pkh_locking
from repro.script.script import Script
from tests.oracles.sighash_reference import classic_sighash

TXID_A = b"\xaa" * 32
TXID_B = b"\xbb" * 32


def simple_tx(locktime=0, sequence=SEQUENCE_FINAL, value=100):
    return Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0),
                        sequence=sequence)],
        outputs=[TxOutput(value=value,
                          script_pubkey=p2pkh_locking(b"\x01" * 20))],
        locktime=locktime,
    )


# -- OutPoint -----------------------------------------------------------------

def test_outpoint_requires_32_byte_txid():
    with pytest.raises(ValidationError):
        OutPoint(txid=b"\x01" * 31, index=0)


def test_outpoint_index_range():
    with pytest.raises(ValidationError):
        OutPoint(txid=TXID_A, index=-1)


def test_coinbase_outpoint():
    assert COINBASE_OUTPOINT.is_coinbase
    assert not OutPoint(txid=TXID_A, index=0).is_coinbase


def test_outpoint_ordering_and_hashing():
    a = OutPoint(txid=TXID_A, index=0)
    b = OutPoint(txid=TXID_A, index=1)
    assert a < b
    assert len({a, b, OutPoint(txid=TXID_A, index=0)}) == 2


# -- construction ----------------------------------------------------------------

def test_transaction_requires_inputs_and_outputs():
    with pytest.raises(ValidationError):
        Transaction(inputs=[], outputs=[TxOutput(value=1,
                                                 script_pubkey=Script())])
    with pytest.raises(ValidationError):
        Transaction(
            inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0))],
            outputs=[],
        )


def test_negative_output_value_rejected():
    with pytest.raises(ValidationError):
        TxOutput(value=-1, script_pubkey=Script())


def test_locktime_range():
    with pytest.raises(ValidationError):
        simple_tx(locktime=-1)
    with pytest.raises(ValidationError):
        simple_tx(locktime=SEQUENCE_FINAL + 1)


def test_sequence_range():
    with pytest.raises(ValidationError):
        TxInput(outpoint=OutPoint(txid=TXID_A, index=0),
                sequence=SEQUENCE_FINAL + 1)


# -- serialization -----------------------------------------------------------------

def test_serialization_roundtrip():
    tx = simple_tx(locktime=42)
    assert Transaction.deserialize(tx.serialize()) == tx


def test_serialization_roundtrip_multiple_io():
    tx = Transaction(
        inputs=[
            TxInput(outpoint=OutPoint(txid=TXID_A, index=i),
                    script_sig=Script([bytes([i])] if i else []))
            for i in range(3)
        ],
        outputs=[
            TxOutput(value=i * 50, script_pubkey=p2pkh_locking(bytes([i]) * 20))
            for i in range(4)
        ],
        locktime=7,
        version=2,
    )
    parsed = Transaction.deserialize(tx.serialize())
    assert parsed == tx
    assert parsed.version == 2


def test_deserialize_rejects_trailing_bytes():
    data = simple_tx().serialize() + b"\x00"
    with pytest.raises(ValidationError):
        Transaction.deserialize(data)


def test_deserialize_rejects_truncation():
    data = simple_tx().serialize()
    with pytest.raises(ValidationError):
        Transaction.deserialize(data[:-2])


@pytest.mark.parametrize("value, width", [
    (0xFC, 1), (0xFD, 3), (0xFFFF, 3), (0x10000, 5), (2**32 - 1, 5),
    (2**32, 9),
])
def test_varint_round_trips_at_each_width_edge(value, width):
    wire = _write_varint(value)
    assert len(wire) == width
    assert _read_varint(wire + b"\x00", 0) == (value, width)
    with pytest.raises(ValidationError, match="truncated varint"):
        _read_varint(wire[:-1], 0)


def test_deserialize_names_a_truncated_sequence_and_output_value():
    tx = simple_tx()
    inputs = tx.inputs[0].serialize()
    with pytest.raises(ValidationError, match="truncated sequence"):
        TxInput.deserialize(inputs[:-1], 0)
    with pytest.raises(ValidationError, match="truncated output value"):
        TxOutput.deserialize(tx.outputs[0].serialize()[:7], 0)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=10**12))
@settings(max_examples=30)
def test_roundtrip_property(locktime, value):
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_B, index=3))],
        outputs=[TxOutput(value=value, script_pubkey=Script([b"\x51"]))],
        locktime=locktime,
    )
    assert Transaction.deserialize(tx.serialize()) == tx


def test_wire_bytes_are_built_once_and_never_inherited():
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0)),
                TxInput(outpoint=OutPoint(txid=TXID_B, index=1))],
        outputs=[TxOutput(value=9, script_pubkey=p2pkh_locking(b"\x02" * 20))],
        locktime=3,
    )
    wire = tx.serialize()
    assert tx.serialize() is wire
    assert Transaction.deserialize(wire).serialize() == wire
    assert Transaction.deserialize(wire) == tx

    signed = tx.with_input_script(1, Script([b"sig"]))
    assert signed.serialize() != wire
    assert signed.txid != tx.txid
    assert Transaction.deserialize(signed.serialize()) == signed
    assert tx.serialize() is wire
    # A sighash serializes a modified copy, not the transaction itself.
    tx.sighash(0, p2pkh_locking(b"\x01" * 20))
    assert tx.serialize() is wire


# -- txid ---------------------------------------------------------------------------

def test_txid_is_stable():
    assert simple_tx().txid == simple_tx().txid


def test_txid_changes_with_content():
    assert simple_tx(value=100).txid != simple_tx(value=101).txid


def test_txid_is_double_sha256_of_wire():
    from repro.crypto.hashing import double_sha256
    tx = simple_tx()
    assert tx.txid == double_sha256(tx.serialize())


# -- coinbase ----------------------------------------------------------------------

def test_coinbase_detection():
    coinbase = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT)],
        outputs=[TxOutput(value=50, script_pubkey=Script())],
    )
    assert coinbase.is_coinbase
    assert not simple_tx().is_coinbase


def test_two_input_tx_never_coinbase():
    tx = Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT),
                TxInput(outpoint=OutPoint(txid=TXID_A, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    assert not tx.is_coinbase


# -- sighash -----------------------------------------------------------------------

def test_sighash_differs_per_input():
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0)),
                TxInput(outpoint=OutPoint(txid=TXID_B, index=1))],
        outputs=[TxOutput(value=5, script_pubkey=Script())],
    )
    locking = p2pkh_locking(b"\x09" * 20)
    assert tx.sighash(0, locking) != tx.sighash(1, locking)


def test_sighash_depends_on_locking_script():
    tx = simple_tx()
    assert tx.sighash(0, p2pkh_locking(b"\x01" * 20)) != tx.sighash(
        0, p2pkh_locking(b"\x02" * 20))


def test_sighash_commits_to_outputs():
    assert simple_tx(value=1).sighash(0, Script()) != simple_tx(
        value=2).sighash(0, Script())


def test_sighash_ignores_existing_script_sigs():
    tx = simple_tx()
    tx_signed = tx.with_input_script(0, Script([b"sig", b"pub"]))
    locking = p2pkh_locking(b"\x01" * 20)
    assert tx.sighash(0, locking) == tx_signed.sighash(0, locking)


def test_sighash_rejects_bad_index():
    with pytest.raises(ValidationError):
        simple_tx().sighash(1, Script())


# -- finality -----------------------------------------------------------------------

def test_zero_locktime_always_final():
    assert simple_tx(locktime=0).is_final(0, 0.0)


def test_height_locktime():
    tx = simple_tx(locktime=100, sequence=0)
    assert not tx.is_final(99, 0.0)
    assert tx.is_final(100, 0.0)


def test_time_locktime():
    tx = simple_tx(locktime=600_000_000, sequence=0)
    assert not tx.is_final(10, 599_999_999.0)
    assert tx.is_final(10, 600_000_000.0)


def test_final_sequences_bypass_locktime():
    tx = simple_tx(locktime=10_000, sequence=SEQUENCE_FINAL)
    assert tx.is_final(0, 0.0)


def test_with_input_script_replaces_only_target():
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0)),
                TxInput(outpoint=OutPoint(txid=TXID_B, index=0))],
        outputs=[TxOutput(value=1, script_pubkey=Script())],
    )
    updated = tx.with_input_script(1, Script([b"x"]))
    assert updated.inputs[0].script_sig.elements == ()
    assert updated.inputs[1].script_sig.elements == (b"x",)


def test_total_output_value():
    tx = Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0))],
        outputs=[TxOutput(value=30, script_pubkey=Script()),
                 TxOutput(value=12, script_pubkey=Script())],
    )
    assert tx.total_output_value == 42


# -- sighash against the classic construction ---------------------------------

def _three_input_tx() -> Transaction:
    """Three inputs, two already signed, so the blanking is exercised."""
    return Transaction(
        inputs=[TxInput(outpoint=OutPoint(txid=TXID_A, index=0),
                        script_sig=Script([b"sig-a", b"pub-a"])),
                TxInput(outpoint=OutPoint(txid=TXID_B, index=2), sequence=7),
                TxInput(outpoint=OutPoint(txid=TXID_A, index=5),
                        script_sig=Script([b"sig-c"]))],
        outputs=[TxOutput(value=4, script_pubkey=p2pkh_locking(b"\x03" * 20)),
                 TxOutput(value=5, script_pubkey=Script())],
        locktime=9, version=2,
    )


def test_sighash_matches_the_classic_construction(funded_chain):
    """Every input's digest, of one-, two- and three-input transactions,
    is the classic construction's: a copy of the transaction per input."""
    node, wallet, _miner = funded_chain
    fanout = wallet.create_fanout(wallet.pubkey_hash, 300, 4)
    fanout_lockings = [node.chain.utxos.get(tx_input.outpoint)
                       .output.script_pubkey for tx_input in fanout.inputs]
    three = _three_input_tx()
    two = Transaction(inputs=three.inputs[1:], outputs=three.outputs,
                      locktime=three.locktime, version=three.version)
    lockings = [p2pkh_locking(bytes([i]) * 20) for i in range(3)]
    cases = [(fanout, fanout_lockings),
             (simple_tx(), lockings[:1]),
             (two, lockings[:2]),
             (three, lockings),
             (three, [lockings[0]] * 3),
             (three, [Script()] * 3)]
    assert {len(tx.inputs) for tx, _lockings in cases} == {1, 2, 3}
    for tx, tx_lockings in cases:
        assert len(tx_lockings) == len(tx.inputs)
        for index, locking in enumerate(tx_lockings):
            assert tx.sighash(index, locking) \
                == classic_sighash(tx, index, locking)
    assert len({three.sighash(index, locking)
                for index, locking in enumerate(lockings)}) == 3
    for index in (-1, 3):
        with pytest.raises(ValidationError) as classic:
            classic_sighash(three, index, Script())
        with pytest.raises(ValidationError) as refused:
            three.sighash(index, Script())
        assert str(refused.value) == str(classic.value)
