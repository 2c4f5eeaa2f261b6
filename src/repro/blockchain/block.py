"""Blocks and block headers."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.blockchain.merkle import merkle_root
from repro.blockchain.transaction import Transaction
from repro.crypto.hashing import double_sha256
from repro.errors import ValidationError

__all__ = ["BlockHeader", "Block"]


@dataclass(frozen=True)
class BlockHeader:
    """An 80-byte-equivalent block header.

    ``timestamp`` is simulation time in seconds (float seconds are rounded
    into milliseconds on the wire so hashing stays deterministic).
    """

    prev_hash: bytes
    merkle_root: bytes
    timestamp: float
    nonce: int = 0
    version: int = 1

    def __post_init__(self) -> None:
        if len(self.prev_hash) != 32:
            raise ValidationError(
                f"prev_hash must be 32 bytes, got {len(self.prev_hash)}"
            )
        if len(self.merkle_root) != 32:
            raise ValidationError(
                f"merkle_root must be 32 bytes, got {len(self.merkle_root)}"
            )
        if self.nonce < 0:
            raise ValidationError(f"nonce cannot be negative: {self.nonce}")

    def serialize(self) -> bytes:
        return (
            struct.pack("<i", self.version)
            + self.prev_hash
            + self.merkle_root
            + struct.pack("<Q", int(self.timestamp * 1000))
            + struct.pack("<Q", self.nonce)
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "BlockHeader":
        if len(data) != 4 + 32 + 32 + 8 + 8:
            raise ValidationError(f"bad header length: {len(data)}")
        version = struct.unpack_from("<i", data, 0)[0]
        prev_hash = data[4:36]
        root = data[36:68]
        timestamp_ms = struct.unpack_from("<Q", data, 68)[0]
        nonce = struct.unpack_from("<Q", data, 76)[0]
        return cls(prev_hash=prev_hash, merkle_root=root,
                   timestamp=timestamp_ms / 1000.0, nonce=nonce,
                   version=version)

    @cached_property
    def hash(self) -> bytes:
        return double_sha256(self.serialize())


@dataclass(frozen=True)
class Block:
    """A block: header plus ordered transactions (coinbase first)."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    def __init__(self, header: BlockHeader,
                 transactions: Iterable[Transaction]) -> None:
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "transactions", tuple(transactions))
        if not self.transactions:
            raise ValidationError("block has no transactions")

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def coinbase(self) -> Transaction:
        return self.transactions[0]

    def serialized_size(self) -> int:
        return len(self.header.serialize()) + sum(
            len(tx.serialize()) for tx in self.transactions
        )

    def compute_merkle_root(self) -> bytes:
        return merkle_root([tx.txid for tx in self.transactions])

    @classmethod
    def assemble(cls, prev_hash: bytes, timestamp: float,
                 transactions: Iterable[Transaction],
                 nonce: int = 0) -> "Block":
        """Build a block with a correct Merkle root over ``transactions``."""
        txs = tuple(transactions)
        root = merkle_root([tx.txid for tx in txs])
        header = BlockHeader(prev_hash=prev_hash, merkle_root=root,
                             timestamp=timestamp, nonce=nonce)
        return cls(header=header, transactions=txs)

    def __str__(self) -> str:
        return (
            f"Block({self.hash.hex()[:16]}.., {len(self.transactions)} txs, "
            f"t={self.header.timestamp:.3f})"
        )
