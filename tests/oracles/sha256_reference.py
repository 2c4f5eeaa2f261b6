"""Pure-Python SHA-256: the oracle for ``hashlib``'s.

``src/`` hashes through :mod:`hashlib` (see :mod:`repro.crypto.hashing`);
this independent, from-scratch implementation of FIPS 180-4 SHA-256 is
what ``tests/crypto/test_sha256.py`` cross-checks it against, on random
inputs and on the published NIST test vectors.
"""

from __future__ import annotations

import struct

__all__ = ["SHA256", "sha256"]

# First 32 bits of the fractional parts of the cube roots of the first 64
# primes (FIPS 180-4 section 4.2.2).
_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_INITIAL_STATE = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(value: int, shift: int) -> int:
    return ((value >> shift) | (value << (32 - shift))) & _MASK


class SHA256:
    """Incremental SHA-256 with the familiar ``update``/``digest`` API."""

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(_INITIAL_STATE)
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"expected bytes-like, got {type(data).__name__}")
        data = bytes(data)
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]

    def digest(self) -> bytes:
        """Return the 32-byte digest of everything absorbed so far."""
        # Work on copies so that further update() calls remain valid.
        state = list(self._state)
        buffer = self._buffer
        bit_length = self._length * 8
        padding = b"\x80" + b"\x00" * ((55 - self._length) % 64)
        tail = buffer + padding + struct.pack(">Q", bit_length)
        for offset in range(0, len(tail), 64):
            state = self._compress_into(state, tail[offset:offset + 64])
        return struct.pack(">8I", *state)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA256":
        clone = SHA256()
        clone._state = list(self._state)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def _compress(self, block: bytes) -> None:
        self._state = self._compress_into(self._state, block)

    @staticmethod
    def _compress_into(state: list[int], block: bytes) -> list[int]:
        w = list(struct.unpack(">16I", block))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

        a, b, c, d, e, f, g, h = state
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK
            h, g, f = g, f, e
            e = (d + temp1) & _MASK
            d, c, b = c, b, a
            a = (temp1 + temp2) & _MASK

        return [
            (state[0] + a) & _MASK, (state[1] + b) & _MASK,
            (state[2] + c) & _MASK, (state[3] + d) & _MASK,
            (state[4] + e) & _MASK, (state[5] + f) & _MASK,
            (state[6] + g) & _MASK, (state[7] + h) & _MASK,
        ]


def sha256(data: bytes) -> bytes:
    """One-shot pure-Python SHA-256 of ``data``."""
    return SHA256(data).digest()
