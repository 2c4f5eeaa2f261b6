"""Base58 and Base58Check encoding (the Bitcoin-family address alphabet).

The system only derives addresses, never parses them: the decoders live
in ``tests/oracles/base58_reference.py``.
"""

from __future__ import annotations

from repro.crypto.hashing import double_sha256

__all__ = ["encode", "encode_check"]

_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def encode(data: bytes) -> str:
    """Base58-encode ``data``, preserving leading zero bytes as '1's."""
    leading_zeros = len(data) - len(data.lstrip(b"\x00"))
    value = int.from_bytes(data, "big")
    chars = []
    while value:
        value, remainder = divmod(value, 58)
        chars.append(_ALPHABET[remainder])
    return "1" * leading_zeros + "".join(reversed(chars))


def encode_check(payload: bytes) -> str:
    """Base58Check: append a 4-byte double-SHA256 checksum, then encode."""
    return encode(payload + double_sha256(payload)[:4])
