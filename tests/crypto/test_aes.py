"""AES block cipher against FIPS-197 / NIST SP 800-38A vectors."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE

# NIST SP 800-38A ECB known-answer vectors (first block of each key size).
KAT_VECTORS = [
    # (key, plaintext, ciphertext)
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a",
     "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "6bc1bee22e409f96e93d7e117393172a",
     "bd334f1d6e45f25ff712a214571fa5cc"),
    ("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "6bc1bee22e409f96e93d7e117393172a",
     "f3eed1bdb5d2a03c064b5a7e3db181f8"),
]

# FIPS-197 appendix C example (AES-128).
FIPS_197_C1 = (
    "000102030405060708090a0b0c0d0e0f",
    "00112233445566778899aabbccddeeff",
    "69c4e0d86a7b0430d8cdb78070b4c55a",
)


@pytest.mark.parametrize("key,plaintext,ciphertext", KAT_VECTORS,
                         ids=["aes128", "aes192", "aes256"])
def test_nist_known_answers(key, plaintext, ciphertext):
    cipher = AES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext
    assert cipher.decrypt_block(bytes.fromhex(ciphertext)).hex() == plaintext


def test_fips197_appendix_c():
    key, plaintext, ciphertext = FIPS_197_C1
    cipher = AES(bytes.fromhex(key))
    assert cipher.encrypt_block(bytes.fromhex(plaintext)).hex() == ciphertext


@pytest.mark.parametrize("key_len,rounds", [(16, 10), (24, 12), (32, 14)])
def test_round_counts(key_len, rounds):
    assert AES(bytes(key_len))._rounds == rounds


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=16, max_size=16))
def test_encrypt_decrypt_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(st.binary(min_size=16, max_size=16))
def test_encryption_changes_block(block):
    cipher = AES(b"\x01" * 32)
    assert cipher.encrypt_block(block) != block


def test_distinct_keys_distinct_ciphertexts():
    block = bytes(16)
    assert AES(bytes(32)).encrypt_block(block) != AES(b"\x01" * 32).encrypt_block(block)


@pytest.mark.parametrize("bad_len", [0, 8, 15, 17, 31, 33, 64])
def test_rejects_bad_key_length(bad_len):
    with pytest.raises(ValueError):
        AES(bytes(bad_len))


@pytest.mark.parametrize("bad_len", [0, 15, 17, 32])
def test_rejects_bad_block_length(bad_len):
    cipher = AES(bytes(32))
    with pytest.raises(ValueError):
        cipher.encrypt_block(bytes(bad_len))
    with pytest.raises(ValueError):
        cipher.decrypt_block(bytes(bad_len))


def test_block_size_constant():
    assert BLOCK_SIZE == 16
