"""Block-cipher chaining modes and padding for the BcWAN payload pipeline.

The paper (section 5.1) encrypts sensor payloads with AES-256-CBC over
16-byte blocks with padding, prepending the random IV so the recipient can
decrypt — exactly what :func:`encrypt_cbc` / :func:`decrypt_cbc` provide.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.aes import AES, BLOCK_SIZE

__all__ = [
    "PaddingError",
    "pad_pkcs7",
    "unpad_pkcs7",
    "encrypt_cbc",
    "decrypt_cbc",
    "random_iv",
]


class PaddingError(Exception):
    """Raised when PKCS#7 padding is malformed on decryption."""


def pad_pkcs7(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """PKCS#7-pad ``data`` up to a multiple of ``block_size``.

    A full block of padding is added when the input is already aligned, so
    padding is always removable unambiguously.
    """
    if not 1 <= block_size <= 255:
        raise ValueError(f"invalid block size: {block_size}")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def unpad_pkcs7(data: bytes) -> bytes:
    """Remove PKCS#7 padding, raising :class:`PaddingError` if malformed."""
    if not data or len(data) % BLOCK_SIZE:
        raise PaddingError(
            f"padded data length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )
    pad_len = data[-1]
    if not 1 <= pad_len <= BLOCK_SIZE:
        raise PaddingError(f"invalid padding length byte: {pad_len}")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad_len]


def random_iv(rng: Optional[random.Random] = None) -> bytes:
    """A fresh 16-byte CBC initialization vector."""
    rng = rng or random.SystemRandom()
    return bytes(rng.randrange(256) for _ in range(BLOCK_SIZE))


def encrypt_cbc(key: bytes, plaintext: bytes, iv: Optional[bytes] = None,
                rng: Optional[random.Random] = None) -> tuple[bytes, bytes]:
    """AES-CBC encrypt ``plaintext`` with PKCS#7 padding.

    Returns ``(iv, ciphertext)``; the IV travels alongside the ciphertext in
    the BcWAN message format (Fig. 4 of the paper).
    """
    if iv is None:
        iv = random_iv(rng)
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = AES(key)
    padded = pad_pkcs7(plaintext)
    blocks = []
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = bytes(
            a ^ b
            for a, b in zip(padded[offset:offset + BLOCK_SIZE], previous)
        )
        encrypted = cipher.encrypt_block(block)
        blocks.append(encrypted)
        previous = encrypted
    return iv, b"".join(blocks)


def decrypt_cbc(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt and strip PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise ValueError(
            f"ciphertext length {len(ciphertext)} is not a positive multiple "
            f"of {BLOCK_SIZE}"
        )
    cipher = AES(key)
    blocks = []
    previous = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        encrypted = ciphertext[offset:offset + BLOCK_SIZE]
        decrypted = cipher.decrypt_block(encrypted)
        blocks.append(bytes(a ^ b for a, b in zip(decrypted, previous)))
        previous = encrypted
    return unpad_pkcs7(b"".join(blocks))
