"""The decoding half of Base58 / Base58Check and of BcWAN addresses.

``src/`` only ever *encodes* addresses (``repro.crypto.base58.encode`` /
``encode_check``, ``repro.crypto.keys.address_from_pubkey``); these are
the inverse functions the suite checks that encoder against.
"""

from __future__ import annotations

from repro.crypto.hashing import double_sha256
from repro.crypto.keys import ADDRESS_VERSION

_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_INDEX = {char: i for i, char in enumerate(_ALPHABET)}


class Base58Error(Exception):
    """Raised on invalid characters or checksum failures."""


def decode(text: str) -> bytes:
    """Decode a Base58 string back to bytes."""
    value = 0
    for char in text:
        if char not in _INDEX:
            raise Base58Error(f"invalid base58 character: {char!r}")
        value = value * 58 + _INDEX[char]
    leading_ones = len(text) - len(text.lstrip("1"))
    body = value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    return b"\x00" * leading_ones + body


def decode_check(text: str) -> bytes:
    """Decode Base58Check, verifying the checksum."""
    raw = decode(text)
    if len(raw) < 4:
        raise Base58Error("base58check payload too short")
    payload, checksum = raw[:-4], raw[-4:]
    if double_sha256(payload)[:4] != checksum:
        raise Base58Error("base58check checksum mismatch")
    return payload


def pubkey_hash_from_address(address: str) -> bytes:
    """Extract the 20-byte HASH160 a script locks to from an address."""
    payload = decode_check(address)
    if len(payload) != 21 or payload[0] != ADDRESS_VERSION:
        raise Base58Error(f"not a BcWAN address: {address!r}")
    return payload[1:]
