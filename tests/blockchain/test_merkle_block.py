"""Merkle trees and block structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.merkle import merkle_branch, merkle_root, verify_proof
from repro.blockchain.transaction import (
    COINBASE_OUTPOINT,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError
from repro.script.script import Script, encode_number


def make_txids(n):
    return [double_sha256(bytes([i])) for i in range(n)]


def coinbase(height=1):
    return Transaction(
        inputs=[TxInput(outpoint=COINBASE_OUTPOINT,
                        script_sig=Script([encode_number(height)]))],
        outputs=[TxOutput(value=50, script_pubkey=Script())],
    )


# -- merkle ------------------------------------------------------------------

def test_single_txid_is_its_own_root():
    txid = make_txids(1)[0]
    assert merkle_root([txid]) == txid


def test_two_txids():
    a, b = make_txids(2)
    assert merkle_root([a, b]) == double_sha256(a + b)


def test_odd_count_duplicates_last():
    a, b, c = make_txids(3)
    left = double_sha256(a + b)
    right = double_sha256(c + c)
    assert merkle_root([a, b, c]) == double_sha256(left + right)


def test_empty_rejected():
    with pytest.raises(ValidationError):
        merkle_root([])


def test_bad_txid_length_rejected():
    with pytest.raises(ValidationError):
        merkle_root([b"\x01" * 31])


def test_root_depends_on_order():
    a, b = make_txids(2)
    assert merkle_root([a, b]) != merkle_root([b, a])


@given(st.integers(min_value=1, max_value=33))
@settings(max_examples=20)
def test_branch_verifies_every_position(n):
    txids = make_txids(n)
    root = merkle_root(txids)
    for index, txid in enumerate(txids):
        branch = merkle_branch(txids, index)
        assert verify_proof(txid, branch, index, n, root)


def test_branch_rejects_wrong_txid():
    txids = make_txids(8)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 3)
    assert not verify_proof(txids[4], branch, 3, 8, root)


def test_branch_rejects_bad_index():
    with pytest.raises(ValidationError):
        merkle_branch(make_txids(4), 4)


# -- header ------------------------------------------------------------------

def header(nonce=0, timestamp=1.5):
    return BlockHeader(prev_hash=b"\x01" * 32, merkle_root=b"\x02" * 32,
                       timestamp=timestamp, nonce=nonce)


def test_header_serialization_roundtrip():
    h = header(nonce=77, timestamp=123.456)
    parsed = BlockHeader.deserialize(h.serialize())
    assert parsed.prev_hash == h.prev_hash
    assert parsed.merkle_root == h.merkle_root
    assert parsed.nonce == 77
    assert abs(parsed.timestamp - 123.456) < 0.001


def test_header_hash_changes_with_nonce():
    assert header(nonce=0).hash != header(nonce=1).hash


def test_header_validation():
    with pytest.raises(ValidationError):
        BlockHeader(prev_hash=b"\x01" * 31, merkle_root=b"\x02" * 32,
                    timestamp=0.0)
    with pytest.raises(ValidationError):
        BlockHeader(prev_hash=b"\x01" * 32, merkle_root=b"\x02" * 31,
                    timestamp=0.0)
    with pytest.raises(ValidationError):
        header(nonce=-1)


def test_deserialize_rejects_bad_length():
    with pytest.raises(ValidationError):
        BlockHeader.deserialize(b"\x00" * 83)


# -- block -------------------------------------------------------------------

def test_assemble_computes_merkle_root():
    cb = coinbase()
    block = Block.assemble(prev_hash=b"\x00" * 32, timestamp=1.0,
                           transactions=[cb])
    assert block.header.merkle_root == merkle_root([cb.txid])
    assert block.compute_merkle_root() == block.header.merkle_root


def test_block_requires_transactions():
    with pytest.raises(ValidationError):
        Block(header=header(), transactions=[])


def test_block_coinbase_accessor():
    cb = coinbase()
    block = Block.assemble(prev_hash=b"\x00" * 32, timestamp=1.0,
                           transactions=[cb])
    assert block.coinbase == cb


def test_serialized_size_counts_everything():
    cb = coinbase()
    block = Block.assemble(prev_hash=b"\x00" * 32, timestamp=1.0,
                           transactions=[cb])
    assert block.serialized_size() == (len(block.header.serialize())
                                       + len(cb.serialize()))
