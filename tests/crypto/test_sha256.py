"""Pure-Python SHA-256 against NIST vectors and hashlib."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from tests.oracles.sha256_reference import SHA256, sha256

# FIPS 180-4 / NIST CAVP known-answer vectors.
NIST_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"a" * 1_000_000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("message,expected", NIST_VECTORS,
                         ids=["empty", "abc", "two-block", "million-a"])
def test_nist_vectors(message, expected):
    assert sha256(message).hex() == expected


@pytest.mark.parametrize("length", [0, 1, 54, 55, 56, 57, 63, 64, 65, 119,
                                    127, 128, 1000])
def test_matches_hashlib_at_padding_boundaries(length):
    data = bytes(range(256)) * (length // 256 + 1)
    data = data[:length]
    assert sha256(data) == hashlib.sha256(data).digest()


@given(st.binary(max_size=2048))
def test_matches_hashlib_random(data):
    assert sha256(data) == hashlib.sha256(data).digest()


@given(st.lists(st.binary(max_size=200), max_size=10))
def test_incremental_equals_oneshot(chunks):
    hasher = SHA256()
    for chunk in chunks:
        hasher.update(chunk)
    assert hasher.digest() == sha256(b"".join(chunks))


def test_digest_is_idempotent():
    hasher = SHA256(b"hello")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b" world")
    assert hasher.digest() == sha256(b"hello world")


def test_copy_forks_state():
    hasher = SHA256(b"shared prefix ")
    clone = hasher.copy()
    hasher.update(b"left")
    clone.update(b"right")
    assert hasher.digest() == sha256(b"shared prefix left")
    assert clone.digest() == sha256(b"shared prefix right")


def test_hexdigest():
    assert SHA256(b"abc").hexdigest() == NIST_VECTORS[1][1]


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        SHA256().update("not bytes")  # type: ignore[arg-type]


def test_accepts_bytearray_and_memoryview():
    assert sha256(b"xyz") == SHA256(bytearray(b"xyz")).digest()
    assert sha256(b"xyz") == SHA256(memoryview(b"xyz")).digest()
