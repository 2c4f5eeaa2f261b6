"""Merkle trees over transaction ids (Bitcoin-style, duplicate-last-on-odd)."""

from __future__ import annotations

from typing import Sequence

from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError

__all__ = ["merkle_root", "merkle_branch", "branch_depth", "verify_proof"]


def merkle_root(txids: Sequence[bytes]) -> bytes:
    """Compute the Merkle root of a list of 32-byte txids."""
    if not txids:
        raise ValidationError("cannot build a Merkle tree over zero txids")
    level = list(txids)
    for txid in level:
        if len(txid) != 32:
            raise ValidationError(f"txid must be 32 bytes, got {len(txid)}")
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            double_sha256(level[i] + level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def merkle_branch(txids: Sequence[bytes], index: int) -> list[bytes]:
    """The authentication path proving ``txids[index]`` is in the tree."""
    if not 0 <= index < len(txids):
        raise ValidationError(f"index {index} out of range for {len(txids)} txids")
    branch: list[bytes] = []
    level = list(txids)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        sibling = index ^ 1
        branch.append(level[sibling])
        level = [
            double_sha256(level[i] + level[i + 1])
            for i in range(0, len(level), 2)
        ]
        index //= 2
    return branch


def branch_depth(tx_count: int) -> int:
    """Authentication-path length of a tree over ``tx_count`` leaves."""
    if tx_count < 1:
        raise ValidationError(f"tree needs at least one leaf, got {tx_count}")
    depth = 0
    width = tx_count
    while width > 1:
        width = (width + 1) // 2
        depth += 1
    return depth


def verify_proof(txid: bytes, branch: Sequence[bytes], index: int,
                 tx_count: int, root: bytes) -> bool:
    """Strict SPV proof check: path, position, *and* tree shape.

    Beyond re-hashing the path, this pins everything an untrusted prover
    could vary:

    * ``index`` must lie inside a ``tx_count``-leaf tree and the branch
      must have exactly that tree's depth (rejects truncated or padded
      paths, which a bare re-hash of the path would happily fold);
    * the duplicate-last-on-odd rule is enforced positionally, closing
      the CVE-2012-2459 ambiguity: a node may only be paired with itself
      at the mandated odd-row position, and there it *must* be — so a
      block whose leaf list fakes the internal duplication (``[a, b, c,
      c]`` mimicking ``[a, b, c]``) never yields an acceptable proof.
    """
    if len(txid) != 32 or len(root) != 32:
        return False
    if tx_count < 1 or not 0 <= index < tx_count:
        return False
    if len(branch) != branch_depth(tx_count):
        return False
    current = txid
    width = tx_count
    position = index
    for sibling in branch:
        if len(sibling) != 32:
            return False
        duplicate_slot = width % 2 == 1 and position == width - 1
        if duplicate_slot != (sibling == current):
            return False
        if position & 1:
            current = double_sha256(sibling + current)
        else:
            current = double_sha256(current + sibling)
        position //= 2
        width = (width + 1) // 2
    return current == root
