"""Base58Check and address derivation."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto import base58, ecdsa
from repro.crypto.hashing import (
    double_sha256,
    hash160,
    hmac_sha256,
    sha256,
)
from repro.crypto.keys import ADDRESS_VERSION, KeyPair, address_from_pubkey
from tests.oracles import base58_reference
from tests.oracles.base58_reference import pubkey_hash_from_address


@given(st.binary(max_size=80))
def test_base58_roundtrip(data):
    assert base58_reference.decode(base58.encode(data)) == data


def test_base58_known_values():
    assert base58.encode(b"hello world") == "StV1DL6CwTryKyV"
    assert base58.encode(b"") == ""
    assert base58_reference.decode("") == b""


def test_base58_preserves_leading_zeros():
    assert base58.encode(b"\x00\x00\x01") == "112"
    assert base58_reference.decode("112") == b"\x00\x00\x01"


def test_base58_rejects_invalid_characters():
    for char in "0OIl+/":
        with pytest.raises(base58_reference.Base58Error):
            base58_reference.decode(f"abc{char}")


@given(st.binary(min_size=1, max_size=60))
def test_base58check_roundtrip(payload):
    assert base58_reference.decode_check(base58.encode_check(payload)) == payload


def test_base58check_detects_corruption():
    encoded = base58.encode_check(b"\x19" + b"\xab" * 20)
    corrupted = ("2" if encoded[0] != "2" else "3") + encoded[1:]
    with pytest.raises(base58_reference.Base58Error):
        base58_reference.decode_check(corrupted)


def test_base58check_rejects_too_short():
    with pytest.raises(base58_reference.Base58Error):
        base58_reference.decode_check(base58.encode(b"ab"))


def test_address_roundtrip():
    keypair = KeyPair.generate(random.Random(5))
    address = keypair.address
    assert address == address_from_pubkey(keypair.public_key)
    assert pubkey_hash_from_address(address) == keypair.pubkey_hash


def test_addresses_start_with_B():
    """ADDRESS_VERSION 0x19 makes addresses visually BcWAN-branded."""
    for seed in range(5):
        assert KeyPair.generate(random.Random(seed)).address.startswith("B")


def test_pubkey_hash_from_address_rejects_wrong_version():
    payload = bytes([ADDRESS_VERSION + 1]) + b"\x01" * 20
    wrong = base58.encode_check(payload)
    with pytest.raises(base58_reference.Base58Error):
        pubkey_hash_from_address(wrong)


def test_pubkey_hash_from_address_rejects_wrong_length():
    payload = bytes([ADDRESS_VERSION]) + b"\x01" * 19
    wrong = base58.encode_check(payload)
    with pytest.raises(base58_reference.Base58Error):
        pubkey_hash_from_address(wrong)


def test_distinct_keys_distinct_addresses():
    a = KeyPair.generate(random.Random(1)).address
    b = KeyPair.generate(random.Random(2)).address
    assert a != b


# -- derive once per key: caches, not fields ----------------------------------

def test_public_key_is_derived_once_and_correctly():
    secret = 0xB0C0_4A5E_ED
    key = ecdsa.PrivateKey(secret)
    first = key.public_key
    assert key.public_key is first
    assert first == ecdsa.PrivateKey(secret).public_key
    point = ecdsa._to_affine(ecdsa._generator_multiply(secret))
    assert (first.x, first.y) == point


def test_keypair_derivations_are_cached_and_correct():
    keypair = KeyPair.generate(random.Random(7))
    assert keypair.pubkey_hash is keypair.pubkey_hash
    assert keypair.address is keypair.address
    assert keypair.public_key is keypair.private_key.public_key
    assert keypair.pubkey_hash == hash160(keypair.public_key.to_bytes())
    assert keypair.address == address_from_pubkey(keypair.public_key)


def test_warm_caches_do_not_leak_into_identity():
    """``==``, ``hash``, ``repr`` and a pickle round trip see the secret
    only, whether or not anything was derived from it yet."""
    warm = KeyPair(ecdsa.PrivateKey(12345))
    cold = KeyPair(ecdsa.PrivateKey(12345))
    cold_repr = repr(cold)
    warm.public_key, warm.pubkey_hash, warm.address
    assert warm == cold and hash(warm) == hash(cold)
    assert warm.private_key == cold.private_key
    assert hash(warm.private_key) == hash(cold.private_key)
    assert repr(warm) == cold_repr
    for original in (warm, warm.private_key, cold, cold.private_key):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and hash(copy) == hash(original)
        assert copy.public_key == warm.public_key
    assert pickle.loads(pickle.dumps(warm)).address == warm.address


# -- hashing facade -------------------------------------------------------------

def test_hash160_composition():
    data = b"pubkey bytes"
    from repro.crypto.ripemd160 import ripemd160
    assert hash160(data) == ripemd160(sha256(data))
    assert len(hash160(data)) == 20


def test_double_sha256():
    assert double_sha256(b"x") == sha256(sha256(b"x"))


def test_hmac_sha256_rfc4231_vector():
    # RFC 4231 test case 2.
    key = b"Jefe"
    message = b"what do ya want for nothing?"
    expected = (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )
    assert hmac_sha256(key, message).hex() == expected
