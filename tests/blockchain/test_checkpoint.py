"""Checkpoint commitments: codec, monotonicity rules, settlement proofs.

The hierarchical federation's consensus glue: regions commit OP_RETURN
digests of their sub-chains onto the settlement chain, and the anchor's
engine enforces per-region epoch/height monotonicity at both mempool
admission and block connection.
"""

from __future__ import annotations

import pytest

from repro.blockchain.checkpoint import (
    CHECKPOINT_MAGIC,
    EMPTY_EPOCH_ROOT,
    Checkpoint,
    CheckpointRules,
    build_checkpoint_payload,
    iter_checkpoints,
    latest_checkpoints,
    parse_checkpoint_payload,
    settlement_proof,
    verify_settlement,
)
from repro.blockchain.mempool import REJECT_CHECKPOINT
from repro.blockchain.merkle import merkle_root
from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError


def make_checkpoint(region_id=0, epoch=1, height=5, tip=b"\x11" * 32,
                    root=b"\x22" * 32, tx_count=3) -> Checkpoint:
    return Checkpoint(region_id=region_id, epoch=epoch, height=height,
                      tip_hash=tip, settled_root=root, tx_count=tx_count)


# -- payload codec -------------------------------------------------------------

def test_payload_roundtrip():
    original = make_checkpoint(region_id=7, epoch=42, height=1000,
                               tx_count=12)
    payload = build_checkpoint_payload(
        region_id=original.region_id, epoch=original.epoch,
        height=original.height, tip_hash=original.tip_hash,
        settled_root=original.settled_root, tx_count=original.tx_count,
    )
    assert payload.startswith(CHECKPOINT_MAGIC)
    assert parse_checkpoint_payload(payload) == original


def test_payload_rejects_bad_fields():
    good = dict(region_id=0, epoch=1, height=1, tip_hash=b"\x01" * 32,
                settled_root=b"\x02" * 32, tx_count=0)
    with pytest.raises(ValidationError):
        build_checkpoint_payload(**{**good, "region_id": 1 << 16})
    with pytest.raises(ValidationError):
        build_checkpoint_payload(**{**good, "epoch": -1})
    with pytest.raises(ValidationError):
        build_checkpoint_payload(**{**good, "tip_hash": b"\x01" * 31})
    with pytest.raises(ValidationError):
        build_checkpoint_payload(**{**good, "settled_root": b""})


def test_parse_non_checkpoint_returns_none():
    assert parse_checkpoint_payload(b"just an IP announcement") is None
    assert parse_checkpoint_payload(b"") is None


def test_parse_truncated_magic_payload_raises():
    payload = build_checkpoint_payload(
        region_id=0, epoch=1, height=1, tip_hash=b"\x01" * 32,
        settled_root=b"\x02" * 32, tx_count=0,
    )
    with pytest.raises(ValidationError):
        parse_checkpoint_payload(payload[:-1])
    with pytest.raises(ValidationError):
        parse_checkpoint_payload(payload + b"\x00")


def test_iter_checkpoints_finds_op_return_commitments(funded_chain):
    _node, wallet, _miner = funded_chain
    payload = build_checkpoint_payload(
        region_id=3, epoch=9, height=17, tip_hash=b"\xaa" * 32,
        settled_root=b"\xbb" * 32, tx_count=4,
    )
    tx = wallet.create_announcement(payload)
    found = list(iter_checkpoints(tx))
    assert found == [make_checkpoint(region_id=3, epoch=9, height=17,
                                     tip=b"\xaa" * 32, root=b"\xbb" * 32,
                                     tx_count=4)]


def test_iter_checkpoints_skips_plain_announcements(funded_chain):
    _node, wallet, _miner = funded_chain
    tx = wallet.create_announcement(b"site-0 at 10.0.0.1")
    assert list(iter_checkpoints(tx)) == []


# -- settlement proofs ---------------------------------------------------------

def test_settlement_proof_roundtrip():
    txids = [bytes([i]) * 32 for i in range(5)]
    checkpoint = make_checkpoint(root=merkle_root(txids),
                                 tx_count=len(txids))
    for txid in txids:
        branch, index = settlement_proof(txids, txid)
        assert verify_settlement(txid, branch, index, checkpoint)
    # A foreign txid fails against the same root.
    branch, index = settlement_proof(txids, txids[0])
    assert not verify_settlement(b"\xff" * 32, branch, index, checkpoint)


def test_settlement_proof_unknown_txid_raises():
    txids = [bytes([i]) * 32 for i in range(3)]
    with pytest.raises(ValidationError):
        settlement_proof(txids, b"\xff" * 32)


def test_internal_node_does_not_prove_settled():
    """``H(a‖b)`` with the one-sibling branch ``[H(c‖d)]`` folds to a
    4-leaf epoch's root, but it is no settled txid: the checkpoint's
    ``tx_count`` pins the branch depth at two."""
    a, b, c, d = (bytes([i]) * 32 for i in range(4))
    checkpoint = make_checkpoint(root=merkle_root([a, b, c, d]), tx_count=4)
    internal, sibling = double_sha256(a + b), double_sha256(c + d)
    assert double_sha256(internal + sibling) == checkpoint.settled_root
    assert not verify_settlement(internal, [sibling], 0, checkpoint)


def test_empty_epoch_proves_nothing():
    checkpoint = make_checkpoint(root=EMPTY_EPOCH_ROOT, tx_count=0)
    assert not verify_settlement(b"\x00" * 32, [], 0, checkpoint)


# -- anchor-side rules ---------------------------------------------------------

def test_rules_accept_first_and_advancing_checkpoints():
    rules = CheckpointRules()
    first = make_checkpoint(epoch=1, height=5)
    rules.check(first, b"\x01" * 32)
    rules.apply({0: first}, [b"\x01" * 32])
    rules.check(make_checkpoint(epoch=2, height=5), b"\x02" * 32)
    rules.check(make_checkpoint(epoch=2, height=9), b"\x02" * 32)


def test_rules_reject_stale_epoch_and_height_regression():
    rules = CheckpointRules()
    rules.apply({0: make_checkpoint(epoch=3, height=10)}, [b"\x01" * 32])
    with pytest.raises(ValidationError, match="stale checkpoint"):
        rules.check(make_checkpoint(epoch=3, height=11), b"\x02" * 32)
    with pytest.raises(ValidationError, match="height regression"):
        rules.check(make_checkpoint(epoch=4, height=9), b"\x02" * 32)


def test_rules_are_per_region():
    rules = CheckpointRules()
    rules.apply({0: make_checkpoint(region_id=0, epoch=5, height=50)},
                [b"\x01" * 32])
    # Region 1 starts fresh: epoch 1 at a lower height is fine.
    rules.check(make_checkpoint(region_id=1, epoch=1, height=2),
                b"\x02" * 32)


def test_rules_tolerate_replay_of_applied_txid():
    rules = CheckpointRules()
    txid = b"\x01" * 32
    rules.apply({0: make_checkpoint(epoch=2, height=8)}, [txid])
    # A reorg restore re-connects the same transaction: not a regression.
    rules.check(make_checkpoint(epoch=2, height=8), txid)
    pending = {}
    rules.stage(make_checkpoint(epoch=2, height=8), txid, pending)
    assert pending == {}  # replays are not re-staged


def test_rules_block_scoped_ordering_via_pending():
    rules = CheckpointRules()
    pending = {}
    rules.stage(make_checkpoint(epoch=1, height=4), b"\x01" * 32, pending)
    # A second same-region checkpoint in the same block must advance
    # past the *staged* one, not just past committed state.
    with pytest.raises(ValidationError, match="stale checkpoint"):
        rules.stage(make_checkpoint(epoch=1, height=6), b"\x02" * 32,
                    pending)
    rules.stage(make_checkpoint(epoch=2, height=6), b"\x02" * 32, pending)
    assert pending[0].epoch == 2


# -- engine + mempool integration ----------------------------------------------

def anchor_node(funded_chain):
    node, wallet, miner = funded_chain
    node.engine.checkpoint_rules = CheckpointRules()
    return node, wallet, miner


def checkpoint_tx(wallet, epoch, height=1):
    payload = build_checkpoint_payload(
        region_id=0, epoch=epoch, height=height, tip_hash=b"\x0a" * 32,
        settled_root=EMPTY_EPOCH_ROOT, tx_count=0,
    )
    return wallet.create_announcement(payload)


def test_mempool_rejects_stale_checkpoint(funded_chain):
    node, wallet, miner = anchor_node(funded_chain)
    assert node.mempool.accept(checkpoint_tx(wallet, epoch=1)).accepted
    miner.mine_and_connect(10.0)
    assert latest_checkpoints(node.chain)[0].epoch == 1
    stale = node.mempool.accept(checkpoint_tx(wallet, epoch=1))
    assert not stale.accepted
    assert stale.reason_code == REJECT_CHECKPOINT
    assert "stale checkpoint" in stale.reason
    # The next epoch sails through.
    assert node.mempool.accept(checkpoint_tx(wallet, epoch=2)).accepted


def test_connect_block_commits_checkpoints_atomically(funded_chain):
    node, wallet, miner = anchor_node(funded_chain)
    node.mempool.accept(checkpoint_tx(wallet, epoch=1, height=3))
    node.mempool.accept(checkpoint_tx(wallet, epoch=2, height=7))
    miner.mine_and_connect(10.0)
    latest = latest_checkpoints(node.chain)[0]
    assert latest.epoch == 2 and latest.height == 7


def test_latest_checkpoints_reads_the_active_chain(funded_chain):
    node, wallet, miner = anchor_node(funded_chain)
    node.mempool.accept(checkpoint_tx(wallet, epoch=1, height=3))
    miner.mine_and_connect(10.0)
    node.mempool.accept(checkpoint_tx(wallet, epoch=2, height=8))
    miner.mine_and_connect(20.0)
    anchored = latest_checkpoints(node.chain)
    assert set(anchored) == {0}
    assert anchored[0].epoch == 2 and anchored[0].height == 8
