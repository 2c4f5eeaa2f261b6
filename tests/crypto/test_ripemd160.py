"""RIPEMD-160 against the designers' reference vectors — the in-tree
implementation, and the ``hashlib``-or-fallback facade in ``hashing``."""

from __future__ import annotations

import hashlib
import importlib

import pytest
from hypothesis import given, strategies as st

from repro.crypto import hashing
from repro.crypto.ripemd160 import RIPEMD160, ripemd160

# Vectors from the RIPEMD-160 reference publication (Dobbertin et al.).
REFERENCE_VECTORS = [
    (b"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"),
    (b"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"),
    (b"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"),
    (b"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"),
    (b"abcdefghijklmnopqrstuvwxyz",
     "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "12a053384a9c0c88e405a06c27dcf49ada62eb2b"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "b0e20b6e3116640286ed3a87a5713079b21f5189"),
    (b"1234567890" * 8, "9b752e45573d4b39f4dbd3323cab82bf63326bfb"),
]


@pytest.mark.parametrize("message,expected", REFERENCE_VECTORS,
                         ids=[f"vec{i}" for i in range(len(REFERENCE_VECTORS))])
def test_reference_vectors(message, expected):
    assert ripemd160(message).hex() == expected


def test_million_a():
    assert ripemd160(b"a" * 1_000_000).hex() == (
        "52783243c1697bdbe16d37f97f68f08325dc1528"
    )


@given(st.lists(st.binary(max_size=200), max_size=10))
def test_incremental_equals_oneshot(chunks):
    hasher = RIPEMD160()
    for chunk in chunks:
        hasher.update(chunk)
    assert hasher.digest() == ripemd160(b"".join(chunks))


@given(st.binary(max_size=512))
def test_digest_idempotent(data):
    hasher = RIPEMD160(data)
    assert hasher.digest() == hasher.digest()


def test_copy_forks_state():
    hasher = RIPEMD160(b"abc")
    clone = hasher.copy()
    clone.update(b"def")
    assert hasher.hexdigest() == REFERENCE_VECTORS[2][1]
    assert clone.digest() == ripemd160(b"abcdef")


def test_digest_size():
    assert len(ripemd160(b"x")) == 20


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        RIPEMD160().update(42)  # type: ignore[arg-type]


@pytest.mark.parametrize("length", [54, 55, 56, 57, 63, 64, 65, 128])
def test_padding_boundaries_differ_from_neighbors(length):
    """Messages that differ only in length must hash differently."""
    base = bytes(length)
    assert ripemd160(base) != ripemd160(base + b"\x00")


# -- the facade: hashlib when the provider has it, in-tree otherwise ----------


def _provider_has_ripemd160() -> bool:
    try:
        hashlib.new("ripemd160")
    except ValueError:
        return False
    return True


def test_facade_uses_hashlib_exactly_when_the_provider_has_it():
    assert (hashing.ripemd160 is not ripemd160) == _provider_has_ripemd160()


@pytest.mark.parametrize("message,expected", REFERENCE_VECTORS,
                         ids=[f"vec{i}" for i in range(len(REFERENCE_VECTORS))])
def test_facade_reference_vectors(message, expected):
    assert hashing.ripemd160(message).hex() == expected


@given(st.binary(max_size=512))
def test_facade_matches_in_tree(data):
    assert hashing.ripemd160(data) == ripemd160(data)
    assert hashing.hash160(data) == ripemd160(hashlib.sha256(data).digest())


def test_facade_falls_back_when_the_provider_lacks_ripemd160(monkeypatch):
    """Reload ``hashing`` under an OpenSSL without the legacy provider."""
    real_new = hashlib.new

    def new(name, *args, **kwargs):
        if name == "ripemd160":
            raise ValueError("unsupported hash type ripemd160")
        return real_new(name, *args, **kwargs)

    try:
        with monkeypatch.context() as patch:
            patch.setattr(hashlib, "new", new)
            importlib.reload(hashing)
            assert hashing.ripemd160 is ripemd160
            for message, expected in REFERENCE_VECTORS:
                assert hashing.ripemd160(message).hex() == expected
            assert hashing.hash160(b"abc") == ripemd160(
                hashlib.sha256(b"abc").digest())
    finally:
        importlib.reload(hashing)
    assert (hashing.ripemd160 is not ripemd160) == _provider_has_ripemd160()
