"""Strict SPV proof verification: shape pinning and CVE-2012-2459.

:func:`repro.blockchain.merkle.verify_proof` is the light client's only
defense against a dishonest proof server — unlike a bare re-hash of the
path it pins the tree depth from ``tx_count`` and enforces the odd-row
duplicate rule positionally, so a prover can neither truncate/pad the
path nor exploit the duplicate-leaf root collision (CVE-2012-2459).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain.merkle import (
    branch_depth,
    merkle_branch,
    merkle_root,
    verify_proof,
)
from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError


def make_txids(n):
    return [double_sha256(bytes([i])) for i in range(n)]


# -- branch_depth ------------------------------------------------------------

def test_branch_depth_small_trees():
    assert branch_depth(1) == 0
    assert branch_depth(2) == 1
    assert branch_depth(3) == 2
    assert branch_depth(4) == 2
    assert branch_depth(5) == 3
    assert branch_depth(8) == 3
    assert branch_depth(9) == 4


def test_branch_depth_rejects_empty_tree():
    with pytest.raises(ValidationError):
        branch_depth(0)


def test_branch_depth_matches_generated_branches():
    for count in range(1, 20):
        txids = make_txids(count)
        for index in range(count):
            assert len(merkle_branch(txids, index)) == branch_depth(count)


# -- single-leaf trees -------------------------------------------------------

def test_single_leaf_proof_is_empty_branch():
    txid = make_txids(1)[0]
    assert verify_proof(txid, [], 0, 1, txid)


def test_single_leaf_rejects_nonempty_branch():
    txid = make_txids(1)[0]
    sibling = double_sha256(b"padding")
    # A bare re-hash folds the extra sibling into a different root, but
    # verify_proof must refuse the shape outright.
    assert not verify_proof(txid, [sibling], 0, 1,
                            double_sha256(txid + sibling))


def test_single_leaf_rejects_wrong_root():
    txid, other = make_txids(2)
    assert not verify_proof(txid, [], 0, 1, other)


# -- round trips over all shapes ---------------------------------------------

def test_roundtrip_every_leaf_small_trees():
    for count in range(1, 14):
        txids = make_txids(count)
        root = merkle_root(txids)
        for index, txid in enumerate(txids):
            branch = merkle_branch(txids, index)
            assert verify_proof(txid, branch, index, count, root), (
                f"count={count} index={index}"
            )


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=1, max_value=40),
       data=st.data())
def test_roundtrip_property(count, data):
    index = data.draw(st.integers(min_value=0, max_value=count - 1))
    txids = make_txids(count)
    branch = merkle_branch(txids, index)
    assert verify_proof(txids[index], branch, index, count,
                        merkle_root(txids))


# -- tampered / truncated proofs ---------------------------------------------

def test_tampered_sibling_rejected():
    txids = make_txids(5)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 2)
    bad = list(branch)
    bad[1] = double_sha256(b"evil")
    assert not verify_proof(txids[2], bad, 2, 5, root)


def test_truncated_branch_rejected():
    txids = make_txids(8)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 3)
    assert not verify_proof(txids[3], branch[:-1], 3, 8, root)


def test_padded_branch_rejected():
    txids = make_txids(4)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 1) + [double_sha256(b"pad")]
    assert not verify_proof(txids[1], branch, 1, 4, root)


def test_wrong_index_rejected():
    txids = make_txids(6)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 2)
    assert not verify_proof(txids[2], branch, 3, 6, root)
    # A tx_count lie that changes the tree depth fails the shape check.
    assert not verify_proof(txids[2], branch, 2, 12, root)


def test_out_of_range_index_rejected():
    txids = make_txids(4)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 0)
    assert not verify_proof(txids[0], branch, -1, 4, root)
    assert not verify_proof(txids[0], branch, 4, 4, root)


def test_malformed_hash_lengths_rejected():
    txids = make_txids(2)
    root = merkle_root(txids)
    branch = merkle_branch(txids, 0)
    assert not verify_proof(txids[0][:-1], branch, 0, 2, root)
    assert not verify_proof(txids[0], branch, 0, 2, root[:-1])
    assert not verify_proof(txids[0], [branch[0][:-1]], 0, 2, root)


# -- CVE-2012-2459 ------------------------------------------------------------

def test_cve_2012_2459_duplicate_leaf_collides_in_root():
    """The raw root collision exists: [a, b, c, c] == [a, b, c]."""
    a, b, c = make_txids(3)
    assert merkle_root([a, b, c, c]) == merkle_root([a, b, c])


def test_cve_2012_2459_fake_duplicate_proof_rejected():
    """A prover claiming the 4-leaf reading of a 3-tx block must fail.

    Under ``tx_count=4`` the duplicated leaf ``c`` at index 3 pairs with
    an identical sibling at an *even* row — which the positional
    duplicate rule forbids (self-pairing is only legal at the mandated
    odd-row last position).  A bare re-hash of the path accepts exactly
    this proof, which is the vulnerability.
    """
    a, b, c = make_txids(3)
    root = merkle_root([a, b, c])
    fake = [a, b, c, c]
    for index in (2, 3):
        branch = merkle_branch(fake, index)
        assert not verify_proof(c, branch, index, 4, root)


def test_cve_2012_2459_honest_odd_proof_still_verifies():
    """The honest 3-leaf proof of ``c`` self-pairs where it must."""
    a, b, c = make_txids(3)
    root = merkle_root([a, b, c])
    branch = merkle_branch([a, b, c], 2)
    assert branch[0] == c  # duplicate-last materialized in the path
    assert verify_proof(c, branch, 2, 3, root)


def test_duplicate_slot_must_self_pair():
    """At the mandated duplicate slot, a differing sibling is rejected."""
    a, b, c = make_txids(3)
    root = merkle_root([a, b, c])
    branch = merkle_branch([a, b, c], 2)
    forged = [double_sha256(b"not-c")] + branch[1:]
    assert not verify_proof(c, forged, 2, 3, root)
