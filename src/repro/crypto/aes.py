"""Pure-Python AES block cipher (FIPS 197).

BcWAN nodes encrypt sensor readings with AES-256 in CBC mode before handing
them to a foreign gateway (paper section 5.1, Fig. 4).  This module
implements the raw 128-bit block cipher for 128/192/256-bit keys; chaining
modes and padding live in :mod:`repro.crypto.modes`.

The implementation is table-driven (S-box plus xtime) and validated against
the FIPS 197 appendix vectors in the test suite.  It is deliberately simple
rather than side-channel hardened — it encrypts simulated sensor payloads,
not production secrets.
"""

from __future__ import annotations

__all__ = ["AES", "BLOCK_SIZE"]

BLOCK_SIZE = 16

# Forward S-box, generated from the AES polynomial (appendix of FIPS 197).
_SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
)

_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_INV_SBOX = tuple(_INV_SBOX)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a


# Multiplication tables for MixColumns / InvMixColumns.
_MUL2 = tuple(_xtime(i) for i in range(256))
_MUL3 = tuple(_MUL2[i] ^ i for i in range(256))


def _gf_mul(a: int, b: int) -> int:
    """General GF(2^8) multiply, used for the inverse MixColumns constants."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


_MUL9 = tuple(_gf_mul(i, 9) for i in range(256))
_MUL11 = tuple(_gf_mul(i, 11) for i in range(256))
_MUL13 = tuple(_gf_mul(i, 13) for i in range(256))
_MUL14 = tuple(_gf_mul(i, 14) for i in range(256))


class AES:
    """The AES block cipher for a fixed key.

    >>> cipher = AES(bytes(32))
    >>> block = cipher.encrypt_block(bytes(16))
    >>> cipher.decrypt_block(block) == bytes(16)
    True
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[list[int]]:
        """Key schedule: expand to 4*(rounds+1) words, return round matrices."""
        nk = len(key) // 4
        words = [list(key[4 * i:4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self._rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([temp[j] ^ words[i - nk][j] for j in range(4)])
        # Group into per-round 16-byte flat keys.
        return [
            [byte for word in words[4 * r:4 * r + 4] for byte in word]
            for r in range(self._rounds + 1)
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        state = [block[i] ^ self._round_keys[0][i] for i in range(16)]
        for round_index in range(1, self._rounds):
            state = self._encrypt_round(state, self._round_keys[round_index])
        # Final round: no MixColumns.
        state = [_SBOX[b] for b in state]
        state = self._shift_rows(state)
        key = self._round_keys[self._rounds]
        return bytes(state[i] ^ key[i] for i in range(16))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"AES block must be 16 bytes, got {len(block)}")
        key = self._round_keys[self._rounds]
        state = [block[i] ^ key[i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for round_index in range(self._rounds - 1, 0, -1):
            key = self._round_keys[round_index]
            state = [state[i] ^ key[i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        key = self._round_keys[0]
        return bytes(state[i] ^ key[i] for i in range(16))

    @staticmethod
    def _encrypt_round(state: list[int], key: list[int]) -> list[int]:
        state = [_SBOX[b] for b in state]
        state = AES._shift_rows(state)
        state = AES._mix_columns(state)
        return [state[i] ^ key[i] for i in range(16)]

    # The state is column-major: byte index 4*c + r holds row r of column c.
    @staticmethod
    def _shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[5], s[10], s[15],
            s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7],
            s[12], s[1], s[6], s[11],
        ]

    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c:4 * c + 4]
            out[4 * c] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            out[4 * c + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            out[4 * c + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            out[4 * c + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]
        return out

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c:4 * c + 4]
            out[4 * c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[4 * c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[4 * c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[4 * c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
