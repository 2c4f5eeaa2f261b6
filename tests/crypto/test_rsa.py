"""RSA-512: keygen, PKCS#1 v1.5 encryption and signatures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa


@pytest.fixture(scope="module")
def keypair():
    return rsa.generate_keypair(512, random.Random(0xAA))


@pytest.fixture(scope="module")
def other_keypair():
    return rsa.generate_keypair(512, random.Random(0xBB))


def test_keygen_modulus_size(keypair):
    assert keypair.bits == 512
    assert keypair.byte_length == 64
    assert keypair.n == keypair.p * keypair.q


def test_keygen_deterministic_with_seed():
    a = rsa.generate_keypair(512, random.Random(7))
    b = rsa.generate_keypair(512, random.Random(7))
    assert a == b


def test_keygen_distinct_seeds_distinct_keys():
    a = rsa.generate_keypair(512, random.Random(1))
    b = rsa.generate_keypair(512, random.Random(2))
    assert a.n != b.n


def test_keygen_rejects_bad_sizes():
    with pytest.raises(ValueError):
        rsa.generate_keypair(100)
    with pytest.raises(ValueError):
        rsa.generate_keypair(513)


def test_private_exponent_valid(keypair):
    probe = 0x1234567890ABCDEF
    assert pow(pow(probe, keypair.e, keypair.n), keypair.d, keypair.n) == probe


@given(st.binary(min_size=0, max_size=53))
@settings(max_examples=40)
def test_encrypt_decrypt_roundtrip(keypair, plaintext):
    ciphertext = keypair.public_key.encrypt(plaintext, random.Random(1))
    assert len(ciphertext) == 64
    assert keypair.decrypt(ciphertext) == plaintext


def test_encrypt_is_randomized(keypair):
    a = keypair.public_key.encrypt(b"same", random.Random(1))
    b = keypair.public_key.encrypt(b"same", random.Random(2))
    assert a != b
    assert keypair.decrypt(a) == keypair.decrypt(b) == b"same"


def test_encrypt_rejects_oversized(keypair):
    with pytest.raises(rsa.RSAError):
        keypair.public_key.encrypt(b"x" * 54)


def test_paper_bundle_fits_rsa512(keypair):
    """Fig. 4's 34-byte bundle must wrap into one RSA-512 block."""
    bundle = bytes(34)
    ciphertext = keypair.public_key.encrypt(bundle, random.Random(3))
    assert len(ciphertext) == 64
    assert keypair.decrypt(ciphertext) == bundle


def test_decrypt_wrong_key_fails(keypair, other_keypair):
    ciphertext = keypair.public_key.encrypt(b"secret", random.Random(4))
    with pytest.raises(rsa.RSAError):
        other_keypair.decrypt(ciphertext)


def test_decrypt_rejects_wrong_length(keypair):
    with pytest.raises(rsa.RSAError):
        keypair.decrypt(b"\x01" * 63)


def test_decrypt_rejects_out_of_range(keypair):
    with pytest.raises(rsa.RSAError):
        keypair.decrypt(b"\xff" * 64)


def test_sign_verify(keypair):
    signature = keypair.sign(b"Em || ePk")
    assert len(signature) == 64
    assert keypair.public_key.verify(b"Em || ePk", signature)


def test_cached_crt_parameters_match_the_inline_formula():
    """50 seeded keys: sign and decrypt through the per-key cached
    ``(dp, dq, q_inv)`` equal the formula recomputed inline per call."""
    rng = random.Random(0xC27)
    for seed in range(50):
        key = rsa.generate_keypair(512, random.Random(seed))
        cold = rsa.RSAPrivateKey.from_bytes(key.to_bytes())
        message = rng.randbytes(40)
        for value in (int.from_bytes(rsa._signature_block(message, 64), "big"),
                      rng.randrange(2, key.n)):
            dp, dq = key.d % (key.p - 1), key.d % (key.q - 1)
            q_inv = pow(key.q, -1, key.p)
            m2 = pow(value % key.q, dq, key.q)
            inline = m2 + (q_inv * (pow(value % key.p, dp, key.p) - m2)
                           ) % key.p * key.q
            assert key._private_op(value) == inline == pow(value, key.d, key.n)
        signature = key.sign(message)
        assert key.sign(message) == signature  # warm == first call
        assert key.public_key.verify(message, signature)
        plaintext = message[:20]
        assert key.decrypt(key.public_key.encrypt(plaintext, rng)) == plaintext
        # The cache is not part of the key's identity or wire form.
        assert cold == key and hash(cold) == hash(key)
        assert key.to_bytes() == cold.to_bytes()


def test_sign_deterministic(keypair):
    assert keypair.sign(b"m") == keypair.sign(b"m")


def test_verify_rejects_tampered_message(keypair):
    signature = keypair.sign(b"original")
    assert not keypair.public_key.verify(b"tampered", signature)


def test_verify_rejects_tampered_signature(keypair):
    signature = bytearray(keypair.sign(b"m"))
    signature[0] ^= 1
    assert not keypair.public_key.verify(b"m", bytes(signature))


def test_verify_rejects_other_key(keypair, other_keypair):
    signature = keypair.sign(b"m")
    assert not other_keypair.public_key.verify(b"m", signature)


def test_verify_rejects_wrong_length(keypair):
    assert not keypair.public_key.verify(b"m", b"\x00" * 63)


def test_public_key_serialization_roundtrip(keypair):
    data = keypair.public_key.to_bytes()
    assert rsa.RSAPublicKey.from_bytes(data) == keypair.public_key
    # 2-byte length + 64-byte modulus + 4-byte exponent.
    assert len(data) == 70


def test_private_key_serialization_roundtrip(keypair):
    data = keypair.to_bytes()
    assert rsa.RSAPrivateKey.from_bytes(data) == keypair


@pytest.mark.parametrize("mutate", [b"", b"\x00", b"\x00" * 5, b"\xff" * 200])
def test_public_key_deserialization_rejects_garbage(mutate):
    with pytest.raises(rsa.RSAError):
        rsa.RSAPublicKey.from_bytes(mutate)


def test_private_key_deserialization_rejects_truncation(keypair):
    with pytest.raises(rsa.RSAError):
        rsa.RSAPrivateKey.from_bytes(keypair.to_bytes()[:-1])


def test_matches(keypair, other_keypair):
    assert keypair.matches(keypair.public_key)
    assert not keypair.matches(other_keypair.public_key)
    assert not other_keypair.matches(keypair.public_key)


def test_fingerprint_distinct(keypair, other_keypair):
    assert keypair.public_key.fingerprint() != other_keypair.public_key.fingerprint()


@pytest.mark.parametrize("bits", [768, 1024])
def test_larger_moduli_work(bits):
    keypair = rsa.generate_keypair(bits, random.Random(bits))
    assert keypair.bits == bits
    ciphertext = keypair.public_key.encrypt(b"bigger", random.Random(1))
    assert keypair.decrypt(ciphertext) == b"bigger"
    assert keypair.public_key.verify(b"m", keypair.sign(b"m"))
